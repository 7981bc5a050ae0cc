import numpy as np
import pytest

from rumexda.adaptation import AdaptationConfig
from rumexda.errors import ConfigError, ShapeError
from rumexda.evaluation import select_model_epoch
from rumexda.experiment import pool_domains, run_strategy, split_sources
from rumexda.nn import ModelConfig
from rumexda.synthdata import bayes_reference, default_benchmark, generate


def _vanilla_run(corpus, seed, epochs=10):
    model_cfg = ModelConfig(input_dim=16, hidden_dims=(32,), feature_dim=16, unfreeze=2)
    train_cfg = AdaptationConfig(strategy="vanilla", epochs=epochs, seed=seed)
    return run_strategy(corpus.sources, corpus.target, model_cfg, train_cfg,
                        eval_targets=[corpus.target])


def test_shifted_target_hurts_vanilla_and_bayes_dominates():
    # the default benchmark's covariate shift is material: vanilla's target
    # F1 sits well below its source validation F1, and never above the
    # known-rule ceiling
    gaps, ref_margins = [], []
    for seed in range(5):
        sources, target = default_benchmark(n_samples=800)
        corpus = generate(sources, target, seed=seed)
        _, history = _vanilla_run(corpus, seed)
        selected = select_model_epoch(history.val_f1_series(), warmup=5)
        rec = history.records[selected - 1]
        gaps.append(rec.source_val_f1 - rec.median_target_f1)
        ref = bayes_reference(corpus)["target"]
        ref_margins.append(ref - rec.target_f1["target"])
    assert float(np.median(gaps)) >= 0.1
    assert all(margin >= -0.02 for margin in ref_margins)


def test_shift_monotonicity_of_vanilla_target_f1():
    # a 3-point shift ladder: growing target shift never helps vanilla
    medians = []
    for shift in (0.0, 2.25, 4.5):
        per_seed = []
        for seed in range(5):
            sources, target = default_benchmark(n_samples=800, target_shift=shift)
            corpus = generate(sources, target, seed=seed)
            _, history = _vanilla_run(corpus, seed, epochs=8)
            selected = select_model_epoch(history.val_f1_series(), warmup=5)
            per_seed.append(history.records[selected - 1].median_target_f1)
        medians.append(float(np.median(per_seed)))
    assert medians[1] <= medians[0] + 0.02
    assert medians[2] <= medians[1] + 0.02


def test_run_strategy_validates_dims():
    sources, target = default_benchmark(n_samples=50)
    corpus = generate(sources, target, seed=0)
    bad_cfg = ModelConfig(input_dim=8, hidden_dims=(16,), feature_dim=8, unfreeze=2)
    with pytest.raises(ShapeError, match="input_dim=8"):
        run_strategy(corpus.sources, corpus.target, bad_cfg,
                     AdaptationConfig(strategy="vanilla", epochs=1))


def test_run_strategy_needs_epochs_past_the_warmup():
    sources, target = default_benchmark(n_samples=50)
    corpus = generate(sources, target, seed=0)
    model = ModelConfig(input_dim=corpus.target.dim, hidden_dims=(8,), feature_dim=4)
    for strategy in ("vanilla", "m2s2da", "m3sda_beta"):
        with pytest.raises(ConfigError, match="epochs=5 must exceed the warmup of 5"):
            run_strategy(corpus.sources, corpus.target, model,
                         AdaptationConfig(strategy=strategy, epochs=5, warmup=5))


def test_split_sources_and_pooling():
    sources, target = default_benchmark(n_samples=200)
    corpus = generate(sources, target, seed=1)
    train, val = split_sources(corpus.sources)
    assert len(train) == 3
    assert val is not None
    total = sum(d.n for d in train) + val.n
    assert total == sum(d.n for d in corpus.sources)
    pooled = pool_domains(train, "pooled")
    assert pooled.n == sum(d.n for d in train)
    assert pooled.labels is not None