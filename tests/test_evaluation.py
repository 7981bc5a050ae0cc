import numpy as np
import pytest

from rumexda.errors import ConfigError, LabelError
from rumexda.evaluation import (
    ConfusionCounts,
    confusion_from_predictions,
    dummy_prior_simulate,
    f1_precision_recall,
    format_report_table,
    report_from_counts,
    select_model_epoch,
    sigma_epochs,
)


def brute_force_counts(y_true, y_pred):
    tp = fp = fn = tn = 0
    for t, p in zip(y_true, y_pred):
        if t == 2:
            continue
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 1:
            fp += 1
        elif t == 1 and p == 0:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp, fp, fn, tn)


# ----------------------------------------------------------------------
# scalar metrics


def test_symmetric_counts():
    p, r, f1 = f1_precision_recall(ConfusionCounts(tp=10, fp=5, fn=5, tn=100))
    assert (p, r, f1) == (pytest.approx(2 / 3), pytest.approx(2 / 3), pytest.approx(2 / 3))


def test_zero_denominators_yield_zero():
    assert f1_precision_recall(ConfusionCounts(0, 0, 0, 42)) == (0.0, 0.0, 0.0)


def test_f1_is_harmonic_mean_when_positive():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = ConfusionCounts(*(int(v) for v in rng.integers(0, 50, size=4)))
        p, r, f1 = f1_precision_recall(c)
        if p > 0 and r > 0:
            assert abs(f1 - 2 * p * r / (p + r)) <= 1e-12


def test_confusion_matches_brute_force_tally():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        y_true = rng.choice([0, 1, 2], size=n, p=[0.6, 0.3, 0.1])
        y_pred = rng.integers(0, 2, size=n)
        assert confusion_from_predictions(y_true, y_pred) == brute_force_counts(y_true, y_pred)


def test_label2_tiles_are_skipped():
    counts = confusion_from_predictions([2, 2, 1, 0], [1, 0, 1, 0])
    assert counts == ConfusionCounts(tp=1, fp=0, fn=0, tn=1)


def test_invalid_prediction_label():
    with pytest.raises(LabelError):
        confusion_from_predictions([0, 1], [0, 2])


# ----------------------------------------------------------------------
# per-flight report


def test_perfect_predictions_give_median_one():
    counts = {f"f{i}": ConfusionCounts(tp=5 + i, fp=0, fn=0, tn=20) for i in range(3)}
    report = report_from_counts(counts)
    assert report.median_f1 == 1.0 and report.mean_f1 == 1.0


def test_all_negative_predictor_scores_zero():
    report = report_from_counts({"f": ConfusionCounts(tp=0, fp=0, fn=7, tn=13)})
    assert report.flights[0].f1 == 0.0
    assert report.flights[0].included


def test_planted_counts_match_hand_oracle():
    counts = {
        "a": ConfusionCounts(tp=8, fp=2, fn=2, tn=88),   # f1 = 16/20 = 0.8
        "b": ConfusionCounts(tp=5, fp=5, fn=5, tn=85),   # f1 = 10/20 = 0.5
        "c": ConfusionCounts(tp=1, fp=9, fn=9, tn=81),   # f1 = 2/20  = 0.1
    }
    report = report_from_counts(counts)
    assert report.median_f1 == pytest.approx(0.5)
    assert report.mean_f1 == pytest.approx((0.8 + 0.5 + 0.1) / 3)
    direct = np.array([0.8, 0.5, 0.1])
    assert report.sigma_f1 == pytest.approx(float(direct.std()), abs=1e-12)


def test_zero_positive_flight_excluded_from_aggregates():
    counts = {
        "napf": ConfusionCounts(tp=0, fp=3, fn=0, tn=97),  # no positives at all
        "other": ConfusionCounts(tp=10, fp=0, fn=0, tn=90),
    }
    report = report_from_counts(counts)
    flags = {fl.domain_id: fl.included for fl in report.flights}
    assert flags == {"napf": False, "other": True}
    assert report.median_f1 == 1.0
    assert report.mean_f1 == 1.0


def test_aggregates_recomputable_from_table():
    rng = np.random.default_rng(9)
    counts = {
        f"f{i}": ConfusionCounts(*(int(v) for v in rng.integers(1, 40, size=4))) for i in range(7)
    }
    report = report_from_counts(counts)
    f1s = [fl.f1 for fl in report.flights if fl.included]
    assert report.median_f1 == float(np.median(f1s))
    assert report.mean_f1 == float(np.mean(f1s))


def test_table_renders_exclusion_note():
    report = report_from_counts({"napf": ConfusionCounts(0, 0, 0, 50)})
    table = format_report_table(report)
    assert "excluded (no positives)" in table
    assert "n/a" in table


# ----------------------------------------------------------------------
# model selection


def test_monotone_history_selects_last_epoch():
    history = [i / 20 for i in range(1, 21)]
    assert select_model_epoch(history, warmup=5) == 20


def test_warmup_peak_is_ignored():
    history = [0.2, 0.3, 0.9, 0.1, 0.1, 0.2, 0.3, 0.2, 0.8, 0.1]
    assert select_model_epoch(history, warmup=5) == 9


def test_tie_breaks_to_earliest():
    history = [0.0] * 6 + [0.7, 0.1, 0.2, 0.3, 0.7, 0.1]
    assert select_model_epoch(history, warmup=5) == 7


def test_epochs_without_a_score_are_skipped():
    assert select_model_epoch([0.9] * 5 + [None, 0.4, None, 0.6, None], warmup=5) == 9


def test_history_without_scores_selects_the_last_epoch():
    assert select_model_epoch([None] * 8, warmup=5) == 8
    assert select_model_epoch([0.9] * 5 + [None] * 3, warmup=5) == 8


def test_short_history_errors():
    with pytest.raises(ConfigError):
        select_model_epoch([0.1] * 5, warmup=5)


def test_selection_always_past_warmup():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(6, 40))
        history = rng.random(n).tolist()
        assert select_model_epoch(history, warmup=5) > 5


# ----------------------------------------------------------------------
# sigma over epochs


def test_constant_history_sigma_zero():
    assert sigma_epochs([0.5] * 10, window=10) == 0.0


def test_alternating_history_sigma():
    assert sigma_epochs([0.4, 0.6] * 5, window=10) == pytest.approx(0.1, abs=1e-15)


def test_sigma_matches_direct_formula():
    rng = np.random.default_rng(5)
    series = rng.random(30).tolist()
    tail = np.array(series[-10:])
    direct = float(np.sqrt(((tail - tail.mean()) ** 2).mean()))
    assert abs(sigma_epochs(series, window=10) - direct) <= 1e-12


def test_short_history_uses_all_with_warning():
    with pytest.warns(UserWarning):
        value = sigma_epochs([0.4, 0.6], window=10)
    assert value == pytest.approx(0.1, abs=1e-15)


# ----------------------------------------------------------------------
# dummy prior baseline


def test_monte_carlo_close_to_expectation():
    rng = np.random.default_rng(123)
    _, _, f1 = dummy_prior_simulate(0.1, 10_000, 90_000, rng)
    assert abs(f1 - 0.1) < 0.01
