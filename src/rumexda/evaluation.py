"""Classification metrics, per-flight reporting and model selection.

The positive class is rumex (label 1); unclear tiles (label 2) never enter
the confusion counts. Flights without a single positive ground-truth tile
are kept in the table but excluded from the aggregate statistics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .config import AdaptationConfig, EvaluationSection
from .errors import ConfigError, DegenerateInputError, LabelError

EXCLUDED_LABEL = 2


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def positives(self) -> int:
        return self.tp + self.fn


def confusion_from_predictions(y_true, y_pred) -> ConfusionCounts:
    """Tally a flight's predictions; ground-truth label-2 tiles are skipped."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise DegenerateInputError(
            f"prediction/label length mismatch: {y_pred.shape} vs {y_true.shape}"
        )
    if np.any((y_pred != 0) & (y_pred != 1)):
        raise LabelError("predictions must be 0 or 1")
    keep = y_true != EXCLUDED_LABEL
    t, p = y_true[keep], y_pred[keep]
    return ConfusionCounts(
        tp=int(np.sum((t == 1) & (p == 1))),
        fp=int(np.sum((t == 0) & (p == 1))),
        fn=int(np.sum((t == 1) & (p == 0))),
        tn=int(np.sum((t == 0) & (p == 0))),
    )


def f1_precision_recall(counts: ConfusionCounts) -> tuple[float, float, float]:
    """(precision, recall, F1) with the 0/0 -> 0 convention.

    F1 = 2 TP / (2 TP + FP + FN).
    """
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    denom = 2 * counts.tp + counts.fp + counts.fn
    f1 = 2 * counts.tp / denom if denom else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class FlightMetrics:
    domain_id: str
    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float
    included: bool  # False when the flight has no positive ground truth


@dataclass
class MetricsReport:
    flights: list[FlightMetrics]
    mean_f1: Optional[float]
    median_f1: Optional[float]
    sigma_f1: Optional[float]


def report_from_counts(counts_by_domain: Mapping[str, ConfusionCounts]) -> MetricsReport:
    flights = []
    for domain_id in sorted(counts_by_domain):
        counts = counts_by_domain[domain_id]
        precision, recall, f1 = f1_precision_recall(counts)
        flights.append(
            FlightMetrics(domain_id, counts, precision, recall, f1, included=counts.positives > 0)
        )
    included = [fl.f1 for fl in flights if fl.included]
    if included:
        arr = np.asarray(included)
        report = MetricsReport(
            flights,
            mean_f1=float(arr.mean()),
            median_f1=float(np.median(arr)),
            sigma_f1=float(arr.std()),  # population std over flights
        )
    else:
        report = MetricsReport(flights, None, None, None)
    return report


def select_model_epoch(val_f1_by_epoch: Sequence[Optional[float]], warmup: int) -> int:
    """Earliest epoch (1-based) maximizing validation F1 after the warm-up.

    Epochs without a score (``None``: no validation rows) are skipped; when
    no epoch after the warm-up has one, the last epoch is selected.
    """
    n = len(val_f1_by_epoch)
    AdaptationConfig(epochs=n, warmup=warmup).validate()
    best_epoch, best = n, -np.inf
    for epoch in range(warmup + 1, n + 1):
        score = val_f1_by_epoch[epoch - 1]
        if score is not None and score > best:
            best, best_epoch = score, epoch
    return best_epoch


def sigma_epochs(median_f1_by_epoch: Sequence[float], window: int) -> float:
    """Population standard deviation of the flight-median F1 over the
    trailing ``window`` epochs."""
    EvaluationSection(window).validate()
    n = len(median_f1_by_epoch)
    if n == 0:
        raise DegenerateInputError("empty history")
    if n < window:
        warnings.warn(
            f"history of {n} epochs is shorter than window={window}; using all epochs",
            stacklevel=2,
        )
        window = n
    tail = np.asarray(median_f1_by_epoch[-window:], dtype=np.float64)
    return float(tail.std())


# ----------------------------------------------------------------------
# dummy prior classifier


def dummy_prior_simulate(
    prior: float, n_pos: int, n_neg: int, rng: np.random.Generator
) -> tuple[float, float, float]:
    """Monte-Carlo draw of the dummy classifier, which predicts positive with
    probability ``prior`` independently per tile; returns (precision, recall, F1)."""
    if not 0.0 <= prior <= 1.0:
        raise ConfigError(f"prior must lie in [0, 1], got {prior}")
    n = n_pos + n_neg
    if n == 0:
        raise DegenerateInputError("flight with no tiles")
    y_true = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
    y_pred = (rng.random(n) < prior).astype(int)
    return f1_precision_recall(confusion_from_predictions(y_true, y_pred))


# ----------------------------------------------------------------------
# rendering


def format_report_table(report: MetricsReport) -> str:
    """Fixed-width per-flight table with the aggregate rows underneath."""
    lines = [f"{'flight':<24}{'prec':>8}{'rec':>8}{'F1':>8}  note"]
    lines.append("-" * len(lines[0]))
    for fl in report.flights:
        note = "" if fl.included else "excluded (no positives)"
        lines.append(
            f"{fl.domain_id:<24}{fl.precision:>8.4f}{fl.recall:>8.4f}{fl.f1:>8.4f}  {note}".rstrip()
        )
    lines.append("-" * len(lines[0]))

    def fmt(v):
        return "n/a" if v is None else f"{v:.4f}"

    lines.append(f"{'median':<24}{'':>8}{'':>8}{fmt(report.median_f1):>8}")
    lines.append(f"{'mean':<24}{'':>8}{'':>8}{fmt(report.mean_f1):>8}")
    lines.append(f"{'sigma_flights':<24}{'':>8}{'':>8}{fmt(report.sigma_f1):>8}")
    return "\n".join(lines) + "\n"
