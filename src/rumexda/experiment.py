"""Wiring from a corpus of domain datasets to a trained model.

Builds the pooled or per-domain training views, builds the model from the
``model`` config with one classifier pair per source for m3sda_beta (one
head otherwise) and the training seed, and dispatches to the trainer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .adaptation import (
    AdaptationConfig,
    DomainDataset,
    TrainingHistory,
    train_m2s2da,
    train_m3sda_beta,
    train_vanilla,
)
from .errors import ConfigError, ShapeError
from .nn import ModelBundle, ModelConfig, build_model


def pool_domains(datasets: Sequence[DomainDataset], domain_id: str) -> DomainDataset:
    if not datasets:
        raise ConfigError("cannot pool an empty list of domains")
    features = np.concatenate([d.features for d in datasets])
    labels = None
    if all(d.labels is not None for d in datasets):
        labels = np.concatenate([d.labels for d in datasets])
    return DomainDataset(domain_id, features, labels)


def split_sources(sources: Sequence[DomainDataset]) -> tuple[list[DomainDataset], DomainDataset]:
    """Per-domain train rows plus one pooled validation set.

    Sources without split tags contribute all rows to training and none to
    validation.
    """
    train, val = [], []
    for ds in sources:
        if ds.split is None:
            train.append(ds)
        else:
            train.append(ds.rows("train"))
            val.append(ds.rows("val"))
    pooled_val = pool_domains(val, "source_val") if val else None
    return train, pooled_val


def run_strategy(
    sources: Sequence[DomainDataset],
    target: DomainDataset,
    model_config: ModelConfig,
    config: AdaptationConfig,
    eval_targets: Sequence[DomainDataset] = (),
    step_observer=None,
) -> tuple[ModelBundle, TrainingHistory]:
    """Train one strategy end to end and return the bundle plus history."""
    config.validate()
    dims = {ds.dim for ds in list(sources) + [target]}
    if len(dims) != 1:
        raise ShapeError(f"domains disagree on feature dim: {sorted(dims)}")
    dim = dims.pop()
    if model_config.input_dim != dim:
        raise ShapeError(
            f"model input_dim={model_config.input_dim} does not match corpus dim={dim}"
        )
    train_sources, pooled_val = split_sources(sources)
    unlabeled_target = target.unlabeled()

    pairs = len(train_sources) if config.strategy == "m3sda_beta" else 0
    bundle = build_model(model_config, pairs, config.seed)
    if config.strategy == "vanilla":
        history = train_vanilla(
            bundle, pool_domains(train_sources, "pooled"), config,
            val=pooled_val, eval_targets=eval_targets,
        )
    elif config.strategy == "m2s2da":
        history = train_m2s2da(
            bundle, pool_domains(train_sources, "pooled"), unlabeled_target, config,
            val=pooled_val, eval_targets=eval_targets,
        )
    else:
        history = train_m3sda_beta(
            bundle, train_sources, unlabeled_target, config,
            val=pooled_val, eval_targets=eval_targets, step_observer=step_observer,
        )
    return bundle, history
