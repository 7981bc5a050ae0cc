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

Each step records graph only where its optimizer consumes a gradient, and
each is one graph node, so its backward walks 1 node. A vanilla, LoRA or
m2s2da iteration, and step 1 of an m3sda iteration, is one
``T.classify_loss`` node (through ``ModelBundle.classify_loss``): the
extractor over the source batches, and the target batch in the same pass
where MD2 uses it, the 1 or 2N heads, the CE and lambda * MD2. Step 2 is
one ``T.max_discrepancy_loss`` node, whose parents are the head tensors:
G runs inside it with no gradient, since it is fixed there, and the 2N
heads (one ``nn.ClassifierHead`` stack) run once over the target and the
sources together. Step 3 is one ``T.min_discrepancy_loss`` node, whose
parents are G's tensors, so no head fills a gradient that nothing steps.
Per-head and per-pair losses are added in head order. The minibatch
streams gather an iteration's batches, the target's first, straight into
one (batches, rows, d) array, which every step of the iteration reads, and
the 2N heads' labels are built once per m3sda iteration. Evaluation
(``predict_labels``, ``discrepancy_eval``) records no graph at all.
``predict_labels``, which the per-epoch eval and ``rumexda eval`` call
once per dataset, runs the rows in fixed blocks of ``_PREDICT_BLOCK``
(256), so its memory is O(block x H x f) whatever the flight size, and its
labels are those of the whole array.

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
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import tensor as T
from .config import STRATEGIES, AdaptationConfig
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

    def next(self, out: Optional[np.ndarray] = None) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The next batch's rows and labels; the rows are gathered into
        ``out``, a (batch_size, d) array, when it is given."""
        while len(self._queue) < self.batch_size:
            self._queue = np.concatenate([self._queue, self.rng.permutation(len(self.features))])
        idx, self._queue = self._queue[: self.batch_size], self._queue[self.batch_size:]
        x = self.features.take(idx, axis=0, out=out)
        y = None if self.labels is None else self.labels[idx]
        return x, y


def _streams(bundle: ModelBundle, domains: Sequence[DomainDataset], seeds,
             batch_size: int) -> list[_MinibatchStream]:
    """One stream per domain, drawing from its seed sequence; a domain's
    rows must have the model's input width, as ``_next_batches`` gathers."""
    for ds in domains:
        if ds.dim != bundle.config.input_dim:
            raise ShapeError(f"domain {ds.domain_id!r} has {ds.dim} features, the model's "
                             f"input_dim={bundle.config.input_dim}")
    return [_MinibatchStream(ds.features, ds.labels, batch_size, np.random.default_rng(seed))
            for ds, seed in zip(domains, seeds)]


def _next_batches(bundle: ModelBundle, streams: Sequence[_MinibatchStream]):
    """The next batch of each stream, gathered into one (streams, rows, d)
    array, and their labels."""
    rows = np.empty((len(streams), streams[0].batch_size, bundle.config.input_dim))
    return rows, [stream.next(out)[1] for stream, out in zip(streams, rows)]


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


def _number(value, field: str, f1: bool = False) -> float:
    """A number of a history record as a float: a JSON number (not a string,
    boolean or null), finite, and for an F1 in [0, 1]; a ValueError naming
    ``field`` otherwise."""
    if type(value) not in (int, float):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{field} is too large for a float") from None
    if f1 and not 0.0 <= number <= 1.0:  # NaN included
        raise ValueError(f"{field} must lie in [0, 1], got {number}")
    if not math.isfinite(number):
        raise ValueError(f"{field} must be finite, got {number}")
    return number


def _optional_f1(value, field: str) -> Optional[float]:
    return None if value is None else _number(value, field, f1=True)


def _object(value, field: str) -> dict:
    """A JSON object of a history line; a ValueError naming ``field`` otherwise."""
    if type(value) is not dict:
        raise ValueError(f"{field} must be a JSON object, got {value!r}")
    return value


def read_history_jsonl(path) -> TrainingHistory:
    """Parse ``to_jsonl`` output; a malformed line raises ``DataError``
    naming the path and line. Each line must be a JSON object: its
    ``epoch`` its position, its ``losses`` an object of finite numbers, its
    ``target_f1`` an object of F1 values, its F1 values numbers in [0, 1]
    (or null where ``to_jsonl`` may write null), ``trainable_parameters`` a
    non-negative integer, and its ``warmup`` and ``strategy`` (one of
    ``config.STRATEGIES``) those of the records before it."""
    records = []
    strategy, count, warmup = "", 0, 0
    for line_no, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = _object(json.loads(line), "a record")
            count = d.get("trainable_parameters", count)
            if type(count) is not int or count < 0:
                raise ValueError(f"trainable_parameters must be a non-negative integer, "
                                 f"got {count!r}")
            epoch = d["epoch"]
            if type(epoch) is not int or epoch != len(records) + 1:
                raise ValueError(f"epoch must be {len(records) + 1}, the record's position, "
                                 f"got {epoch!r}")
            record = EpochRecord(
                epoch=epoch,
                losses={k: _number(v, f"losses[{k!r}]")
                        for k, v in _object(d["losses"], "losses").items()},
                source_val_f1=_optional_f1(d["source_val_f1"], "source_val_f1"),
                target_f1={k: _number(v, f"target_f1[{k!r}]", f1=True)
                           for k, v in _object(d["target_f1"], "target_f1").items()},
                median_target_f1=_optional_f1(d["median_target_f1"], "median_target_f1"),
            )
            if type(d["warmup"]) is not int or d["warmup"] < 0:
                raise ValueError(f"warmup must be a non-negative integer, got {d['warmup']!r}")
            if records and d["warmup"] != warmup:
                raise ValueError(f"warmup {d['warmup']} differs from the {warmup} of the "
                                 "records before it")
            if d["strategy"] not in STRATEGIES:
                raise ValueError(f"strategy must be one of {STRATEGIES}, got {d['strategy']!r}")
            if records and d["strategy"] != strategy:
                raise ValueError(f"strategy {d['strategy']!r} differs from the {strategy!r} of "
                                 "the records before it")
            warmup, strategy = d["warmup"], d["strategy"]
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


def _finite(name: str, value: float, phase: str) -> float:
    """The value of a loss computed in the ``phase`` step of an iteration;
    ``_LossNotFinite`` if it is not finite."""
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
    # the target batch first, as classify_loss takes it
    domains, seeds = (([source], [source_ss]) if target is None
                      else ([target.unlabeled(), source], [target_ss, source_ss]))
    streams = _streams(bundle, domains, seeds, config.batch_size)
    lam = None if target is None else config.lam
    opt = make_optimizer(config.optimizer, [p for _, p in bundle.trainable_parameters()],
                         config.lr)

    def iterate() -> dict[str, float]:
        rows, labels = _next_batches(bundle, streams)
        loss, ce, md2 = bundle.classify_loss(rows, labels[-1][None], drop_rng, lam)
        losses = {"ce": _finite("ce", ce, "classify")}
        if md2 is not None:
            losses["md2"] = _finite("md2", md2, "classify")
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


class IterationBatches(NamedTuple):
    """An m3sda iteration's batches as steps 1 and 2 read them: the target
    batch and then the N source batches, as a sequence or one (N + 1, rows,
    d) array, and the 2N heads' labels (head h reads source batch h // 2)."""

    rows: Sequence[np.ndarray]
    labels: np.ndarray

    @classmethod
    def of(cls, batches, x_t=None) -> "IterationBatches":
        # an IterationBatches, or the N (x, y) source batches and the target rows
        if isinstance(batches, cls):
            return batches
        return cls([x_t, *(x for x, _ in batches)], _head_labels([y for _, y in batches]))


def _head_labels(labels) -> np.ndarray:
    """The N source batches' labels as the 2N heads read them."""
    return np.stack(labels).repeat(2, axis=0)


class M3sdaStepper:
    """One iteration of the three-step alternation, exposed step by step.

    Separate optimizers over the extractor and the classifier parameters
    make the freeze contracts structural: step 2 never steps the extractor
    optimizer and step 3 never steps the classifier one. Neither step
    records graph for the frozen side either: the frozen side's tensors are
    not parents of the step's node. A loss that is not finite raises
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

    def step_classify(self, batches, x_t: Optional[np.ndarray] = None) -> tuple[float, float]:
        """Step 1: update G and all heads on source CE + lambda * MD2, over
        the N (x, y) source ``batches`` and the target rows ``x_t``, or over
        an ``IterationBatches``."""
        rows, labels = IterationBatches.of(batches, x_t)
        lam = self.config.lam
        loss, ce, md2 = self.bundle.classify_loss(rows if lam > 0 else rows[1:], labels,
                                                  self.drop_rng, lam if lam > 0 else None)
        ce_value = _finite("ce", ce, "classify")
        md2_value = 0.0 if md2 is None else _finite("md2", md2, "classify")
        self.opt_g.zero_grad()
        self.opt_heads.zero_grad()
        loss.backward()
        self.opt_g.step()
        self.opt_heads.step()
        return ce_value, md2_value

    def step_max_discrepancy(self, batches, x_t: Optional[np.ndarray] = None) -> float:
        """Step 2: with G fixed, push classifier pairs apart on the target
        while keeping them correct on the sources; takes its batches as
        ``step_classify`` does."""
        loss, ce, disc = self.bundle.max_discrepancy_loss(*IterationBatches.of(batches, x_t),
                                                          self.drop_rng)
        disc_value = _finite("disc_max", disc, "max_discrepancy")
        _finite("ce", ce, "max_discrepancy")
        self.opt_g.zero_grad()
        self.opt_heads.zero_grad()
        loss.backward()
        self.opt_heads.step()
        return disc_value

    def step_min_discrepancy(self, x_t: np.ndarray) -> float:
        """Step 3: with the heads fixed, pull the pairs together through G."""
        disc = self.bundle.min_discrepancy_loss(x_t, self.drop_rng)
        disc_value = _finite("disc_min", disc.item(), "min_discrepancy")
        self.opt_g.zero_grad()
        self.opt_heads.zero_grad()
        disc.backward()
        self.opt_g.step()
        return disc_value

    def discrepancy_eval(self, x_t: np.ndarray) -> float:
        """Summed pair discrepancy on a batch with dropout off; no update."""
        with T.no_grad():
            return T.pair_discrepancy(T.softmax(self.bundle.forward(x_t))).item()


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
    # the target batch first, as the steps take their batches
    streams = _streams(bundle, [target.unlabeled(), *sources], [target_ss, *source_ss.spawn(n)],
                       config.batch_size)
    stepper = M3sdaStepper(bundle, config, drop_rng)
    iterations = itertools.count(1)
    observe = step_observer or (lambda *_: None)

    def iterate() -> dict[str, float]:
        iteration = next(iterations)
        rows, labels = _next_batches(bundle, streams)
        batches = IterationBatches(rows, _head_labels(labels[1:]))
        ce, md2 = stepper.step_classify(batches)
        observe("step2_pre", iteration, bundle)
        disc_max = stepper.step_max_discrepancy(batches)
        observe("step2_post", iteration, bundle)
        observe("step3_pre", iteration, bundle)
        disc_min = stepper.step_min_discrepancy(rows[0])
        observe("step3_post", iteration, bundle)
        return {"ce": ce, "md2": md2, "disc_max": disc_max, "disc_min": disc_min}

    steps = max(1, math.ceil(max(ds.n for ds in sources) / config.batch_size))
    return _run_epochs("m3sda_beta", ("ce", "md2", "disc_max", "disc_min"), bundle, config,
                       steps, iterate, val, eval_targets)
