"""Training strategies: vanilla supervised, single-source moment matching,
and multi-source moment matching with classifier-discrepancy alternation.

The moment distance between two feature batches is

    MD2 = sum_{k=1,2} || mean(z_s^k) - mean(z_t^k) ||_2

with elementwise powers and batch means; the multi-source form averages the
source-target terms over the N sources and adds the pairwise source-source
terms weighted by 1/C(N,2). Either form is one ``T.moment_distance``
graph node. These losses only ever touch the feature extractor's output,
so their gradients reach G and nothing else.

The three-step alternation trains (1) the extractor and every classifier on
labeled source batches plus the weighted moment distance, (2) the
classifiers only, to stay correct on the sources while maximizing each
pair's disagreement on unlabeled target samples, and (3) the extractor
only, to minimize that disagreement.

Each step records graph only where its optimizer consumes a gradient. An
extraction is one graph node and the 2N heads (one ``nn.ClassifierHead``
stack) another, however many blocks and pairs there are; per-head losses
are added in head order. A vanilla or LoRA iteration's backward walks 3
nodes; with lambda > 0 an m2s2da one walks 7, and the m3sda steps over
three sources walk 9, 6 and 4. Step 2 extracts features under
``T.no_grad()``, since G is fixed there, and step 3 turns the four head
tensors' ``requires_grad`` off around its forward and backward passes, so
neither fills gradients that nothing steps. Evaluation
(``predict_labels``, ``discrepancy_eval``) records no graph at all.
``predict_labels``, which the per-epoch eval and ``rumexda eval`` call once
per dataset, runs the rows in fixed blocks of ``_PREDICT_BLOCK`` (256), so
its memory is O(block x H x f) whatever the flight size, and its labels
are those of the whole array.

A loss that is not finite stops training with ``TrainingStateError`` before
any optimizer steps on it, and so does an optimizer step that leaves a
parameter that is not finite.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as T
from .config import AdaptationConfig
from .errors import ConfigError, DataError, DegenerateInputError, ShapeError, TrainingStateError
from .evaluation import confusion_from_predictions, report_from_counts, select_model_epoch
from .files import read_text, write_atomic
from .nn import ModelBundle, trainable_parameter_count
from .optim import make_optimizer
from .tensor import Tensor


@dataclass
class DomainDataset:
    """Feature/label rows tagged with a domain id and optional split tags."""

    domain_id: str
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    split: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (len(self.features),):
                raise ShapeError("labels length does not match feature rows")
        if self.split is not None:
            self.split = np.asarray(self.split)
            if self.split.shape != (len(self.features),):
                raise ShapeError("split length does not match feature rows")

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def rows(self, split: str) -> "DomainDataset":
        if self.split is None:
            raise DegenerateInputError(f"domain {self.domain_id!r} carries no split tags")
        keep = self.split == split
        return DomainDataset(
            self.domain_id,
            self.features[keep],
            None if self.labels is None else self.labels[keep],
            self.split[keep],
        )

    def unlabeled(self) -> "DomainDataset":
        return DomainDataset(self.domain_id, self.features, None, self.split)


# ----------------------------------------------------------------------
# losses


def moment_distance_single(z_s: Tensor, z_t: Tensor) -> Tensor:
    """First- plus second-moment distance between two feature batches."""
    return T.moment_distance([z_s], z_t)


def moment_distance_multi(z_sources: Sequence[Tensor], z_t: Tensor) -> Tensor:
    """Multi-source moment distance: mean source-target alignment plus the
    pairwise source-source terms, each summed over moments k in {1, 2}.
    With one source it is that source's distance to the target alone."""
    return T.moment_distance(z_sources, z_t)


def classifier_discrepancy(p1: Tensor, p2: Tensor) -> Tensor:
    """Mean absolute difference between two probability outputs, averaged
    over batch and classes; |x| is built as relu(x) + relu(-x) so the
    subgradient at zero disagreement is zero."""
    if p1.shape != p2.shape:
        raise ShapeError(f"probability shapes disagree: {p1.shape} vs {p2.shape}")
    diff = T.sub(p1, p2)
    return T.reduce_mean(T.add(T.relu(diff), T.relu(T.mul(diff, -1.0))))


# ----------------------------------------------------------------------
# minibatch streams


class _MinibatchStream:
    """Endless shuffled minibatches of constant size (short datasets wrap)."""

    def __init__(self, features: np.ndarray, labels: Optional[np.ndarray],
                 batch_size: int, rng: np.random.Generator):
        if len(features) == 0:
            raise DegenerateInputError("cannot stream batches from an empty dataset")
        self.features = features
        self.labels = labels
        self.batch_size = batch_size
        self.rng = rng
        self._queue = np.empty(0, dtype=np.int64)

    def next(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        while len(self._queue) < self.batch_size:
            self._queue = np.concatenate([self._queue, self.rng.permutation(len(self.features))])
        idx, self._queue = self._queue[: self.batch_size], self._queue[self.batch_size:]
        x = self.features[idx]
        y = None if self.labels is None else self.labels[idx]
        return x, y


# ----------------------------------------------------------------------
# history


@dataclass
class EpochRecord:
    epoch: int
    losses: dict[str, float]
    source_val_f1: Optional[float]
    target_f1: dict[str, float]
    median_target_f1: Optional[float]


@dataclass
class TrainingHistory:
    strategy: str
    trainable_count: int
    warmup: int  # the warm-up that select_model_epoch selects with
    records: list[EpochRecord] = field(default_factory=list)
    # parameters after the epoch ``select_model_epoch`` picks from ``records``
    selected_snapshot: Optional[dict[str, np.ndarray]] = None

    def val_f1_series(self) -> list[Optional[float]]:
        return [r.source_val_f1 for r in self.records]

    def median_target_series(self) -> list[float]:
        return [
            r.median_target_f1 if r.median_target_f1 is not None else 0.0 for r in self.records
        ]

    def to_jsonl(self, path) -> None:
        lines = []
        for r in self.records:
            lines.append(
                json.dumps(
                    {
                        "epoch": r.epoch,
                        "losses": r.losses,
                        "source_val_f1": r.source_val_f1,
                        "target_f1": r.target_f1,
                        "median_target_f1": r.median_target_f1,
                        "strategy": self.strategy,
                        "trainable_parameters": self.trainable_count,
                        "warmup": self.warmup,
                    },
                    sort_keys=True,
                )
            )
        write_atomic(path, "\n".join(lines) + "\n")


def _optional_float(value) -> Optional[float]:
    return None if value is None else float(value)


def read_history_jsonl(path) -> TrainingHistory:
    """Parse ``to_jsonl`` output; a malformed line raises ``DataError``
    naming the path and line."""
    records = []
    strategy, count, warmup = "", 0, 0
    for line_no, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            strategy = d.get("strategy", strategy)
            count = d.get("trainable_parameters", count)
            record = EpochRecord(
                epoch=int(d["epoch"]),
                losses={k: float(v) for k, v in d["losses"].items()},
                source_val_f1=_optional_float(d["source_val_f1"]),
                target_f1={k: float(v) for k, v in d["target_f1"].items()},
                median_target_f1=_optional_float(d["median_target_f1"]),
            )
            if type(d["warmup"]) is not int or d["warmup"] < 0:
                raise ValueError(f"warmup must be a non-negative integer, got {d['warmup']!r}")
            if records and d["warmup"] != warmup:
                raise ValueError(f"warmup {d['warmup']} differs from the {warmup} of the "
                                 "records before it")
            warmup = d["warmup"]
            records.append(record)
        except KeyError as exc:
            raise DataError(f"{path}:{line_no}: history record has no {exc} field") from exc
        except (ValueError, TypeError, AttributeError) as exc:
            raise DataError(f"{path}:{line_no}: malformed history record: {exc}") from exc
    return TrainingHistory(strategy, count, warmup, records)


# ----------------------------------------------------------------------
# prediction

# rows that predict_labels runs through the extractor and heads at a time
_PREDICT_BLOCK = 256


def predict_ensemble(bundle: ModelBundle, x) -> Tensor:
    """Uniform average of the softmax outputs of every classifier head: the
    softmax of the head stack, summed in head order, times 1/H. Records no
    graph."""
    with T.no_grad():
        probs = T.softmax(bundle.forward(x)).data
    return Tensor(functools.reduce(np.add, probs) * (1.0 / len(probs)))


def predict_labels(bundle: ModelBundle, features: np.ndarray) -> np.ndarray:
    """Hard 0/1 predictions: the argmax of a single head's logits, or of
    the uniform softmax ensemble of 2N heads. Records no graph.

    The rows run through the model ``_PREDICT_BLOCK`` at a time, so the
    temporaries are H x block x f however many rows a flight has. Each
    row's products are the whole-array ones, so the labels are too."""
    ensemble = bundle.head.n_heads > 1
    labels = []
    with T.no_grad():
        # no rows still run one empty block, which gives an empty int64 array
        for start in range(0, max(len(features), 1), _PREDICT_BLOCK):
            block = features[start:start + _PREDICT_BLOCK]
            scores = (predict_ensemble(bundle, block).data if ensemble
                      else bundle.forward(block).data[0])
            labels.append(np.argmax(scores, axis=1))
    return np.concatenate(labels)


# ----------------------------------------------------------------------
# shared trainer plumbing


def _spawn_rngs(seed: int) -> tuple[np.random.Generator, np.random.SeedSequence, np.random.SeedSequence]:
    root = np.random.SeedSequence(seed)
    drop_ss, source_ss, target_ss = root.spawn(3)
    return np.random.default_rng(drop_ss), source_ss, target_ss


def _warn_if_one_class(ds: DomainDataset) -> None:
    if ds.labels is not None and ds.n > 0 and len(np.unique(ds.labels)) < 2:
        warnings.warn(
            f"training domain {ds.domain_id!r} contains a single class only", stacklevel=3
        )


def _epoch_eval(bundle: ModelBundle, val: Optional[DomainDataset],
                eval_targets: Sequence[DomainDataset]):
    val_f1 = None
    if val is not None and val.n > 0:
        counts = confusion_from_predictions(val.labels, predict_labels(bundle, val.features))
        from .evaluation import f1_precision_recall

        _, _, val_f1 = f1_precision_recall(counts)
    target_f1: dict[str, float] = {}
    median = None
    if eval_targets:
        counts_by_domain = {
            ds.domain_id: confusion_from_predictions(ds.labels, predict_labels(bundle, ds.features))
            for ds in eval_targets
        }
        report = report_from_counts(counts_by_domain)
        target_f1 = {fl.domain_id: fl.f1 for fl in report.flights}
        median = report.median_f1
    return val_f1, target_f1, median


class _LossNotFinite(TrainingStateError):
    """A loss that is not finite; raised before any optimizer steps on it."""

    def __init__(self, name: str, value: float, phase: str):
        super().__init__(f"training diverged: {name} loss is {value}")
        self.phase = phase


def _finite(name: str, loss: Tensor, phase: str) -> float:
    """The value of a scalar loss computed in the ``phase`` step of an
    iteration; ``_LossNotFinite`` if it is not finite."""
    value = loss.item()
    if not math.isfinite(value):
        raise _LossNotFinite(name, value, phase)
    return value


def _run_epochs(strategy: str, loss_names: tuple[str, ...], bundle: ModelBundle,
                config: AdaptationConfig, steps: int, iterate: Callable[[], dict[str, float]],
                val: Optional[DomainDataset],
                eval_targets: Sequence[DomainDataset]) -> TrainingHistory:
    """The epoch loop every trainer shares.

    ``iterate`` performs one optimizer iteration and returns its losses,
    keyed by a subset of ``loss_names``; each epoch records their mean over
    ``steps`` iterations plus the per-epoch evaluation. Once the history
    extends past the warm-up, the parameters of the epoch
    ``select_model_epoch`` picks so far are kept in ``selected_snapshot``,
    so one copy is held however many epochs run. A loss or a stepped
    parameter that is not finite raises ``TrainingStateError`` naming the
    epoch and iteration, and for a loss the step that computed it.
    """
    history = TrainingHistory(strategy, trainable_parameter_count(bundle), config.warmup)
    # overflow in a diverging run surfaces as a non-finite loss or parameter
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, config.epochs + 1):
            sums = dict.fromkeys(loss_names, 0.0)
            for step in range(1, steps + 1):
                where = f"at epoch {epoch}, iteration {step} of {steps}"
                try:
                    losses = iterate()
                except _LossNotFinite as exc:
                    raise TrainingStateError(
                        f"{exc} {where}, in the {exc.phase} step") from exc
                except TrainingStateError as exc:
                    raise TrainingStateError(f"{exc} {where}") from exc
                for name, value in losses.items():
                    sums[name] += value
            val_f1, target_f1, median = _epoch_eval(bundle, val, eval_targets)
            losses = {name: total / steps for name, total in sums.items()}
            history.records.append(EpochRecord(epoch, losses, val_f1, target_f1, median))
            if epoch > config.warmup:  # select_model_epoch rejects shorter histories
                if select_model_epoch(history.val_f1_series(), config.warmup) == epoch:
                    history.selected_snapshot = bundle.snapshot()
    return history


# ----------------------------------------------------------------------
# vanilla and single-source moment matching


def _train_single_head(strategy: str, loss_names: tuple[str, ...], bundle: ModelBundle,
                       source: DomainDataset, target: Optional[DomainDataset],
                       config: AdaptationConfig, val: Optional[DomainDataset],
                       eval_targets: Sequence[DomainDataset]) -> TrainingHistory:
    """Cross entropy on labeled source batches, plus lambda times the
    moment distance to an unlabeled target batch when ``target`` is given."""
    drop_rng, source_ss, target_ss = _spawn_rngs(config.seed)
    src_stream = _MinibatchStream(source.features, source.labels, config.batch_size,
                                  np.random.default_rng(source_ss))
    tgt_stream = None
    if target is not None:
        tgt_stream = _MinibatchStream(target.features, None, config.batch_size,
                                      np.random.default_rng(target_ss))
    opt = make_optimizer(config.optimizer, [p for _, p in bundle.trainable_parameters()],
                         config.lr)

    def iterate() -> dict[str, float]:
        x, y = src_stream.next()
        z_s = bundle.extract(Tensor(x))
        logits = bundle.head.forward(z_s, training=True, rng=drop_rng)
        loss = T.softmax_cross_entropy(logits, y[None])
        losses = {"ce": _finite("ce", loss, "classify")}
        if tgt_stream is not None:
            xt, _ = tgt_stream.next()
            md2 = moment_distance_single(z_s, bundle.extract(Tensor(xt)))
            losses["md2"] = _finite("md2", md2, "classify")
            loss = T.add(loss, T.mul(md2, config.lam))
        opt.zero_grad()
        loss.backward()
        opt.step()
        return losses

    steps = max(1, math.ceil(source.n / config.batch_size))
    return _run_epochs(strategy, loss_names, bundle, config, steps, iterate, val, eval_targets)


def train_vanilla(bundle: ModelBundle, train: DomainDataset, config: AdaptationConfig,
                  val: Optional[DomainDataset] = None,
                  eval_targets: Sequence[DomainDataset] = ()) -> TrainingHistory:
    """Standard supervised training on the pooled labeled source."""
    config.validate()
    if train.labels is None:
        raise DegenerateInputError("vanilla training needs labeled source data")
    _warn_if_one_class(train)
    return _train_single_head("vanilla", ("ce",), bundle, train, None, config, val,
                              eval_targets)


def train_m2s2da(bundle: ModelBundle, source: DomainDataset, target: DomainDataset,
                 config: AdaptationConfig,
                 val: Optional[DomainDataset] = None,
                 eval_targets: Sequence[DomainDataset] = ()) -> TrainingHistory:
    """Cross entropy on the labeled source plus lambda times the moment
    distance between source and (unlabeled) target feature batches.

    The moment term's gradient reaches only the extractor; with lambda = 0
    the run is step-for-step identical to ``train_vanilla`` under the same
    seed.
    """
    config.validate()
    if source.labels is None:
        raise DegenerateInputError("moment-matching training needs labeled source data")
    if target.n == 0:
        raise ConfigError("m2s2da needs a non-empty unlabeled target stream")
    _warn_if_one_class(source)
    return _train_single_head("m2s2da", ("ce", "md2"), bundle, source,
                              target if config.lam > 0 else None, config, val, eval_targets)


# ----------------------------------------------------------------------
# multi-source moment matching with classifier discrepancy


class M3sdaStepper:
    """One iteration of the three-step alternation, exposed step by step.

    Separate optimizers over the extractor and the classifier parameters
    make the freeze contracts structural: step 2 never steps the extractor
    optimizer and step 3 never steps the classifier one. Neither step
    records graph for the frozen side either: step 2 extracts under
    ``T.no_grad()``, and step 3 sets the head tensors' ``requires_grad`` off
    until its backward is done. A loss that is not finite raises
    ``TrainingStateError`` before its step updates anything.
    """

    def __init__(self, bundle: ModelBundle, config: AdaptationConfig,
                 drop_rng: np.random.Generator):
        if bundle.pairs == 0:
            raise ConfigError("bundle was not built with classifier pairs")
        self.bundle = bundle
        self.config = config
        self.drop_rng = drop_rng
        self.opt_g = make_optimizer(
            config.optimizer, [p for _, p in bundle.extractor_trainable_parameters()], config.lr
        )
        self.opt_heads = make_optimizer(
            config.optimizer, [p for _, p in bundle.head_trainable_parameters()], config.lr
        )

    def _pair_ce(self, z_list: list[Tensor], batches: list[tuple[np.ndarray, np.ndarray]]) -> Tensor:
        """Summed CE of every head on its pair's source batch."""
        logits = self.bundle.head.forward([z for z in z_list for _ in range(2)],
                                          training=True, rng=self.drop_rng)
        labels = np.stack([y for _, y in batches for _ in range(2)])
        return T.softmax_cross_entropy(logits, labels)

    def _pair_discrepancy(self, z_t: Tensor, training: bool = True) -> Tensor:
        """Summed discrepancy of every pair on the target batch."""
        logits = self.bundle.head.forward(z_t, training=training, rng=self.drop_rng)
        return T.pair_discrepancy(T.softmax(logits))

    def step_classify(self, batches, x_t: np.ndarray) -> tuple[float, float]:
        """Step 1: update G and all heads on source CE + lambda * MD2."""
        z_list = [self.bundle.extract(Tensor(x)) for x, _ in batches]
        loss = self._pair_ce(z_list, batches)
        ce_value = _finite("ce", loss, "classify")
        md2_value = 0.0
        if self.config.lam > 0:
            z_t = self.bundle.extract(Tensor(x_t))
            md2 = moment_distance_multi(z_list, z_t)
            md2_value = _finite("md2", md2, "classify")
            loss = T.add(loss, T.mul(md2, self.config.lam))
        self.opt_g.zero_grad()
        self.opt_heads.zero_grad()
        loss.backward()
        self.opt_g.step()
        self.opt_heads.step()
        return ce_value, md2_value

    def step_max_discrepancy(self, batches, x_t: np.ndarray) -> float:
        """Step 2: with G fixed, push classifier pairs apart on the target
        while keeping them correct on the sources."""
        with T.no_grad():
            z_list = [self.bundle.extract(Tensor(x)) for x, _ in batches]
            z_t = self.bundle.extract(Tensor(x_t))
        disc = self._pair_discrepancy(z_t)
        disc_value = _finite("disc_max", disc, "max_discrepancy")
        loss = T.sub(self._pair_ce(z_list, batches), disc)
        self.opt_g.zero_grad()
        self.opt_heads.zero_grad()
        loss.backward()
        self.opt_heads.step()
        return disc_value

    def step_min_discrepancy(self, x_t: np.ndarray) -> float:
        """Step 3: with the heads fixed, pull the pairs together through G."""
        for p in self.opt_heads.params:
            p.requires_grad = False
        try:
            z_t = self.bundle.extract(Tensor(x_t))
            disc = self._pair_discrepancy(z_t)
            disc_value = _finite("disc_min", disc, "min_discrepancy")
            self.opt_g.zero_grad()
            self.opt_heads.zero_grad()
            disc.backward()
        finally:
            for p in self.opt_heads.params:
                p.requires_grad = True
        self.opt_g.step()
        return disc_value

    def discrepancy_eval(self, x_t: np.ndarray) -> float:
        """Summed pair discrepancy on a batch with dropout off; no update."""
        with T.no_grad():
            z_t = self.bundle.extract(Tensor(np.asarray(x_t, dtype=np.float64)))
            return self._pair_discrepancy(z_t, training=False).item()


def train_m3sda_beta(bundle: ModelBundle, sources: Sequence[DomainDataset],
                     target: DomainDataset, config: AdaptationConfig,
                     val: Optional[DomainDataset] = None,
                     eval_targets: Sequence[DomainDataset] = (),
                     step_observer: Optional[Callable[[str, int, ModelBundle], None]] = None
                     ) -> TrainingHistory:
    """The full three-step alternation over epochs of per-domain batches.

    One minibatch per source domain plus one target batch feed all three
    steps of an iteration. ``step_observer(phase, iteration, bundle)`` is
    called around steps 2 and 3 (phases "step2_pre", "step2_post",
    "step3_pre", "step3_post") so freeze contracts can be audited.
    """
    config.validate()
    n = len(sources)
    if n == 0:
        raise ConfigError("m3sda_beta needs at least one source domain")
    if bundle.pairs != n:
        raise ConfigError(
            f"bundle has {bundle.pairs} classifier pairs but {n} source domains were provided"
        )
    if target.n == 0:
        raise ConfigError("m3sda_beta needs a non-empty unlabeled target stream")
    for ds in sources:
        if ds.labels is None:
            raise DegenerateInputError(f"source domain {ds.domain_id!r} has no labels")
        _warn_if_one_class(ds)

    drop_rng, source_ss, target_ss = _spawn_rngs(config.seed)
    src_children = source_ss.spawn(n)
    src_streams = [
        _MinibatchStream(ds.features, ds.labels, config.batch_size, np.random.default_rng(child))
        for ds, child in zip(sources, src_children)
    ]
    tgt_stream = _MinibatchStream(target.features, None, config.batch_size,
                                  np.random.default_rng(target_ss))
    stepper = M3sdaStepper(bundle, config, drop_rng)
    iterations = itertools.count(1)
    observe = step_observer or (lambda *_: None)

    def iterate() -> dict[str, float]:
        iteration = next(iterations)
        batches = [stream.next() for stream in src_streams]
        x_t, _ = tgt_stream.next()
        ce, md2 = stepper.step_classify(batches, x_t)
        observe("step2_pre", iteration, bundle)
        disc_max = stepper.step_max_discrepancy(batches, x_t)
        observe("step2_post", iteration, bundle)
        observe("step3_pre", iteration, bundle)
        disc_min = stepper.step_min_discrepancy(x_t)
        observe("step3_post", iteration, bundle)
        return {"ce": ce, "md2": md2, "disc_max": disc_max, "disc_min": disc_min}

    steps = max(1, math.ceil(max(ds.n for ds in sources) / config.batch_size))
    return _run_epochs("m3sda_beta", ("ce", "md2", "disc_max", "disc_min"), bundle, config,
                       steps, iterate, val, eval_targets)
