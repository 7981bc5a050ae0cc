import math
import tracemalloc

import numpy as np
import pytest

from rumexda import tensor as T
from rumexda.adaptation import (
    AdaptationConfig,
    DomainDataset,
    M3sdaStepper,
    _MinibatchStream,
    _PREDICT_BLOCK,
    classifier_discrepancy,
    moment_distance_multi,
    moment_distance_single,
    predict_ensemble,
    predict_labels,
    read_history_jsonl,
    train_m2s2da,
    train_m3sda_beta,
    train_vanilla,
)
from rumexda.errors import ConfigError, DegenerateInputError, ShapeError, TrainingStateError
from rumexda.evaluation import select_model_epoch
from rumexda.nn import ModelConfig, build_model
from rumexda.tensor import Tensor

from gradcheck import assert_gradients_match


# ----------------------------------------------------------------------
# moment distance


def test_md2_single_hand_value():
    md = moment_distance_single(Tensor([[1.0, 0.0]]), Tensor([[0.0, 0.0]]))
    assert abs(md.item() - 2.0) <= 1e-12


def test_md2_multi_hand_value():
    md = moment_distance_multi(
        [Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])], Tensor([[0.0, 0.0]])
    )
    assert abs(md.item() - 2.0 * (1.0 + math.sqrt(2.0))) <= 1e-12


def test_md2_zero_on_identical_batches():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(9, 5))
    assert moment_distance_single(Tensor(z), Tensor(z)).item() <= 1e-12


def test_md2_axioms_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.normal(size=(int(rng.integers(2, 12)), 4))
        b = rng.normal(size=(int(rng.integers(2, 12)), 4))
        ab = moment_distance_single(Tensor(a), Tensor(b)).item()
        ba = moment_distance_single(Tensor(b), Tensor(a)).item()
        assert ab >= 0.0
        assert abs(ab - ba) <= 1e-12


def test_md2_multi_reduces_to_single_for_one_source():
    rng = np.random.default_rng(2)
    for _ in range(20):
        zs, zt = rng.normal(size=(6, 3)), rng.normal(size=(8, 3))
        single = moment_distance_single(Tensor(zs), Tensor(zt)).item()
        multi = moment_distance_multi([Tensor(zs)], Tensor(zt)).item()
        assert abs(single - multi) <= 1e-12


def test_md2_single_source_is_one_node_equal_to_the_plain_two_moment_sum():
    # one source needs no 1/n scale: MD2 is one node whose value and
    # gradients are bitwise those of sum over k of || mean(z_s^k) - mean(z_t^k) ||
    rng = np.random.default_rng(4)
    zs0, zt0 = rng.normal(size=(6, 3)), rng.normal(size=(8, 3))
    zs, zt = Tensor(zs0, requires_grad=True), Tensor(zt0, requires_grad=True)
    terms = [T.l2_norm(T.sub(T.reduce_mean(T.pow_k(zs, k), axis=0),
                             T.reduce_mean(T.pow_k(zt, k), axis=0))) for k in (1, 2)]
    plain = T.add(terms[0], terms[1])
    plain.backward()
    fs, ft = Tensor(zs0, requires_grad=True), Tensor(zt0, requires_grad=True)
    single = moment_distance_single(fs, ft)
    single.backward()
    assert single._op == "moment_distance"
    assert all(p._grad_fn is None for p in single._parents)
    assert single.data.tobytes() == plain.data.tobytes()
    assert fs.grad.tobytes() == zs.grad.tobytes() and ft.grad.tobytes() == zt.grad.tobytes()


def test_md2_multi_zero_when_everything_identical():
    z = np.random.default_rng(3).normal(size=(5, 4))
    md = moment_distance_multi([Tensor(z), Tensor(z), Tensor(z)], Tensor(z))
    assert md.item() <= 1e-12


def test_md2_gradients():
    rng = np.random.default_rng(4)
    z_t = rng.normal(size=(6, 4))
    assert_gradients_match(
        lambda t: moment_distance_single(t, Tensor(z_t)), rng.normal(size=(5, 4))
    )
    others = [rng.normal(size=(5, 4)), rng.normal(size=(7, 4))]
    assert_gradients_match(
        lambda t: moment_distance_multi([t, Tensor(others[0]), Tensor(others[1])], Tensor(z_t)),
        rng.normal(size=(4, 4)),
    )
    # and through the target argument
    z_s = rng.normal(size=(5, 4))
    assert_gradients_match(lambda t: moment_distance_single(Tensor(z_s), t), z_t)


def test_md2_shape_errors():
    with pytest.raises(ShapeError):
        moment_distance_single(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 5))))
    for md2 in (moment_distance_single, lambda z_s, z_t: moment_distance_multi([z_s], z_t)):
        with pytest.raises(ShapeError):
            md2(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))  # a 1-D target
    with pytest.raises(ConfigError):
        moment_distance_multi([], Tensor(np.zeros((3, 4))))


# ----------------------------------------------------------------------
# classifier discrepancy


def test_discrepancy_zero_for_equal_outputs():
    p = Tensor([[0.3, 0.7], [0.9, 0.1]])
    assert classifier_discrepancy(p, p).item() == 0.0


def test_discrepancy_of_opposite_certainty():
    d = classifier_discrepancy(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]))
    assert d.item() == 1.0


def test_discrepancy_bounded_by_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.random((7, 2))
        a /= a.sum(axis=1, keepdims=True)
        b = rng.random((7, 2))
        b /= b.sum(axis=1, keepdims=True)
        v = classifier_discrepancy(Tensor(a), Tensor(b)).item()
        assert 0.0 <= v <= 1.0


def test_discrepancy_gradient():
    rng = np.random.default_rng(6)
    # keep |p1 - p2| away from the kink of |.|
    p2 = rng.random((5, 2)) * 0.4
    p1 = p2 + 0.2 + 0.3 * rng.random((5, 2))
    assert_gradients_match(lambda t: classifier_discrepancy(t, Tensor(p2)), p1)


def test_pair_discrepancy_is_the_sum_of_classifier_discrepancies():
    rng = np.random.default_rng(7)
    probs = rng.random((6, 5, 2))
    probs /= probs.sum(axis=2, keepdims=True)
    for upstream in (1.0, -1.0):
        stacked = Tensor(probs, requires_grad=True)
        d = T.pair_discrepancy(stacked)
        T.mul(d, upstream).backward()
        heads = [Tensor(p, requires_grad=True) for p in probs]
        total = None
        for i in range(3):
            term = classifier_discrepancy(heads[2 * i], heads[2 * i + 1])
            total = term if total is None else T.add(total, term)
        T.mul(total, upstream).backward()
        assert d.data.tobytes() == total.data.tobytes()
        assert stacked.grad.tobytes() == np.stack([h.grad for h in heads]).tobytes()
    # away from the kink of |.|
    second = rng.random((2, 5, 2)) * 0.4
    first = second + rng.choice([-1.0, 1.0], size=second.shape) * (0.1 + 0.3 * rng.random(second.shape))
    interleaved = np.stack([first[0], second[0], first[1], second[1]])
    assert_gradients_match(T.pair_discrepancy, interleaved)


# ----------------------------------------------------------------------
# synthetic fixtures


def _blobs(n=400, d=2, seed=0, gap=3.0):
    """Linearly separable two-class blobs with a known boundary."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.5).astype(int)
    centers = np.where(labels[:, None] == 1, gap, -gap)
    x = 0.5 * rng.standard_normal((n, d))
    x[:, 0] += centers[:, 0]
    return DomainDataset("blobs", x, labels)


def _model(d=2, seed=0, pairs=0):
    return build_model(ModelConfig(input_dim=d, hidden_dims=(8,), feature_dim=8, unfreeze=2),
                       pairs, seed)


# ----------------------------------------------------------------------
# vanilla trainer


def test_vanilla_learns_separable_blobs():
    train, val = _blobs(seed=1), _blobs(seed=2)
    bundle = _model(seed=1)
    cfg = AdaptationConfig(strategy="vanilla", epochs=50, batch_size=32, seed=0)
    history = train_vanilla(bundle, train, cfg, val=val)
    assert history.records[-1].source_val_f1 >= 0.99


def test_vanilla_lr_zero_keeps_parameters():
    train = _blobs(seed=3)
    bundle = _model(seed=2)
    before = bundle.snapshot()
    cfg = AdaptationConfig(strategy="vanilla", epochs=2, warmup=0, lr=0.0, optimizer="sgd", seed=0)
    train_vanilla(bundle, train, cfg)
    for name, arr in bundle.snapshot().items():
        assert arr.tobytes() == before[name].tobytes(), name


@pytest.mark.parametrize("strategy", ["vanilla", "m2s2da", "m3sda_beta"])
def test_trainers_need_epochs_past_the_warmup(strategy):
    # no epoch past the warm-up means no selected snapshot: a typed error
    # before the first step, not a None snapshot for the caller to restore
    cfg = AdaptationConfig(strategy=strategy, epochs=5, warmup=5, seed=0)
    sources = [_blobs(seed=s) for s in (30, 31)]
    target = _blobs(seed=32).unlabeled()
    bundle = _model(seed=6, pairs=2 if strategy == "m3sda_beta" else 0)
    before = bundle.snapshot()
    with pytest.raises(ConfigError, match="epochs=5 must exceed the warmup of 5"):
        if strategy == "vanilla":
            train_vanilla(bundle, sources[0], cfg)
        elif strategy == "m2s2da":
            train_m2s2da(bundle, sources[0], target, cfg)
        else:
            train_m3sda_beta(bundle, sources, target, cfg)
    for name, arr in bundle.snapshot().items():
        assert arr.tobytes() == before[name].tobytes(), name


def test_vanilla_history_bitwise_deterministic(tmp_path):
    train, val = _blobs(seed=4), _blobs(seed=5)
    cfg = AdaptationConfig(strategy="vanilla", epochs=4, warmup=0, seed=9)

    def run(path):
        bundle = _model(seed=3)
        history = train_vanilla(bundle, train, cfg, val=val)
        history.to_jsonl(path)
        return path.read_bytes()

    assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")


def test_vanilla_warns_on_single_class_data():
    ds = DomainDataset("one", np.random.default_rng(0).normal(size=(50, 2)), np.zeros(50, dtype=int))
    bundle = _model(seed=4)
    cfg = AdaptationConfig(strategy="vanilla", epochs=1, warmup=0, seed=0)
    with pytest.warns(UserWarning, match="single class"):
        train_vanilla(bundle, ds, cfg)


def test_history_jsonl_roundtrip(tmp_path):
    train = _blobs(seed=6)
    bundle = _model(seed=5)
    cfg = AdaptationConfig(strategy="vanilla", epochs=3, warmup=0, seed=1)
    history = train_vanilla(bundle, train, cfg, val=_blobs(seed=7), eval_targets=[_blobs(seed=8)])
    path = tmp_path / "history.jsonl"
    history.to_jsonl(path)
    loaded = read_history_jsonl(path)
    assert loaded.strategy == "vanilla"
    assert loaded.trainable_count == history.trainable_count
    assert [r.epoch for r in loaded.records] == [1, 2, 3]
    assert loaded.records[-1].losses == history.records[-1].losses


# ----------------------------------------------------------------------
# m2s2da


def _shifted_target(n=400, d=2, seed=10, shift=2.5):
    ds = _blobs(n=n, d=d, seed=seed)
    return DomainDataset("target", ds.features + np.array([shift] + [0.0] * (d - 1)), ds.labels)


def test_lambda_zero_reduces_to_vanilla():
    train = _blobs(seed=11)
    target = _shifted_target(seed=12)
    b_v = _model(seed=6)
    b_0 = _model(seed=6)
    cfg_v = AdaptationConfig(strategy="vanilla", epochs=3, warmup=0, seed=21)
    cfg_0 = AdaptationConfig(strategy="m2s2da", lam=0.0, epochs=3, warmup=0, seed=21)
    h_v = train_vanilla(b_v, train, cfg_v)
    h_0 = train_m2s2da(b_0, train, target.unlabeled(), cfg_0)
    assert [r.losses["ce"] for r in h_v.records] == [r.losses["ce"] for r in h_0.records]
    for (n1, p1), (n2, p2) in zip(b_v.parameters(), b_0.parameters()):
        assert p1.data.tobytes() == p2.data.tobytes(), (n1, n2)


def test_identical_domains_keep_md2_small_and_source_f1():
    source, val = _blobs(n=600, seed=13), _blobs(n=300, seed=14)
    target = _blobs(n=600, seed=15)  # same distribution, fresh draw
    cfg_v = AdaptationConfig(strategy="vanilla", epochs=8, seed=2)
    cfg_m = AdaptationConfig(strategy="m2s2da", lam=0.5, epochs=8, seed=2)
    b_v, b_m = _model(seed=7), _model(seed=7)
    h_v = train_vanilla(b_v, source, cfg_v, val=val)
    h_m = train_m2s2da(b_m, source, target.unlabeled(), cfg_m, val=val)
    f1_gap = abs(h_v.records[-1].source_val_f1 - h_m.records[-1].source_val_f1)
    assert f1_gap < 0.05
    z_s = b_m.extract(Tensor(source.features))
    z_t = b_m.extract(Tensor(target.features))
    assert moment_distance_single(z_s, z_t).item() < 0.5


def test_shifted_target_md2_decreases():
    source = _blobs(n=500, seed=16)
    target = _shifted_target(n=500, seed=17)
    bundle = _model(seed=8)

    def full_md2():
        z_s = bundle.extract(Tensor(source.features))
        z_t = bundle.extract(Tensor(target.features))
        return moment_distance_single(z_s, z_t).item()

    before = full_md2()
    cfg = AdaptationConfig(strategy="m2s2da", lam=0.5, epochs=8, seed=3)
    train_m2s2da(bundle, source, target.unlabeled(), cfg)
    assert full_md2() < before


def test_m2s2da_requires_target():
    bundle = _model(seed=9)
    empty = DomainDataset("t", np.zeros((0, 2)))
    with pytest.raises(ConfigError):
        train_m2s2da(bundle, _blobs(seed=18), empty,
                     AdaptationConfig(strategy="m2s2da", epochs=1, warmup=0))


def test_da_strategies_reject_batch_of_one():
    with pytest.raises(ConfigError):
        AdaptationConfig(strategy="m2s2da", batch_size=1).validate()
    AdaptationConfig(strategy="vanilla", batch_size=1).validate()  # fine for vanilla


# ----------------------------------------------------------------------
# m3sda-beta


def _three_sources(seed0=30):
    return [_blobs(n=300, seed=seed0 + i) for i in range(3)]


def test_m3sda_freeze_contracts_during_training():
    sources = _three_sources()
    target = _shifted_target(n=300, seed=40)
    bundle = _model(seed=10, pairs=3)
    cfg = AdaptationConfig(strategy="m3sda_beta", epochs=2, warmup=0, batch_size=50, seed=4)

    g_names = {name for name, _ in bundle.extractor_trainable_parameters()}
    head_names = {name for name, _ in bundle.head_trainable_parameters()}
    stash = {}
    violations = []

    def observer(phase, iteration, b):
        params = dict(b.parameters())
        if phase == "step2_pre":
            stash["g"] = {n: params[n].data.copy() for n in g_names}
        elif phase == "step2_post":
            for n in g_names:
                if params[n].data.tobytes() != stash["g"][n].tobytes():
                    violations.append((iteration, "G moved in step 2", n))
        elif phase == "step3_pre":
            stash["heads"] = {n: params[n].data.copy() for n in head_names}
        elif phase == "step3_post":
            for n in head_names:
                if params[n].data.tobytes() != stash["heads"][n].tobytes():
                    violations.append((iteration, "head moved in step 3", n))

    train_m3sda_beta(bundle, sources, target.unlabeled(), cfg, step_observer=observer)
    assert violations == []


def _stepper_and_batch(seed=12, pairs=3):
    sources = _three_sources(seed0=70)[:pairs]
    target = _shifted_target(n=64, seed=75)
    bundle = _model(seed=seed, pairs=pairs)
    stepper = M3sdaStepper(bundle, AdaptationConfig(strategy="m3sda_beta", seed=seed),
                           np.random.default_rng(seed))
    batches = [(ds.features[:32], ds.labels[:32]) for ds in sources]
    return bundle, stepper, batches, target.features[:32]


def test_m3sda_steps_fill_only_the_gradients_they_step():
    bundle, stepper, batches, x_t = _stepper_and_batch()
    extractor = [p for _, p in bundle.extractor_trainable_parameters()]
    heads = [p for _, p in bundle.head_trainable_parameters()]
    stepper.step_classify(batches, x_t)
    assert all(p.grad is not None for p in extractor + heads)
    stepper.step_max_discrepancy(batches, x_t)
    assert all(p.grad is None for p in extractor)
    assert all(p.grad is not None for p in heads)
    stepper.step_min_discrepancy(x_t)
    assert all(p.grad is not None for p in extractor)
    assert all(p.grad is None for p in heads)
    assert all(p.requires_grad for p in heads)


def test_m3sda_step_on_a_loss_that_is_not_finite_moves_nothing():
    bundle, stepper, batches, x_t = _stepper_and_batch()
    before = bundle.snapshot()
    bad = [(x.copy(), y) for x, y in batches]
    bad[0][0][0, 0] = np.nan
    with pytest.raises(TrainingStateError, match="ce loss is nan"):
        stepper.step_classify(bad, x_t)
    for name, p in bundle.parameters():
        assert p.data.tobytes() == before[name].tobytes(), name


def test_m3sda_step3_restores_head_flags_when_it_raises():
    bundle, stepper, _, x_t = _stepper_and_batch()
    with pytest.raises(ShapeError):
        stepper.step_min_discrepancy(x_t[:, :1])
    assert len(bundle.head_trainable_parameters()) == 4


def test_m3sda_step3_freeze_audit_sees_every_head_tensor():
    # the step-3 head toggle must not empty the list the freeze audit reads
    pairs = 3
    sources = _three_sources(seed0=80)
    target = _shifted_target(n=300, seed=85)
    bundle = _model(seed=13, pairs=pairs)
    seen = {"step3_pre": set(), "step3_post": set()}

    def observer(phase, iteration, b):
        if phase in seen:
            seen[phase].add(len(b.head_trainable_parameters()))

    train_m3sda_beta(bundle, sources, target.unlabeled(),
                     AdaptationConfig(strategy="m3sda_beta", epochs=1, warmup=0, batch_size=50,
                                      seed=5),
                     step_observer=observer)
    assert seen == {"step3_pre": {4}, "step3_post": {4}}


def test_m3sda_one_step_discrepancy_directions():
    # after the classify step has settled (the regime the alternation runs
    # in), step 2 raises the pair disagreement on a fixed target batch and
    # step 3 lowers it; the full 20-init sweep lives in the acceptance suite
    from rumexda.synthdata import default_benchmark, generate

    src_specs, tgt_spec = default_benchmark(n_samples=400)
    corpus = generate(src_specs, tgt_spec, seed=0)
    rng = np.random.default_rng(0)
    up2 = down3 = 0
    trials = 6
    for trial in range(trials):
        mc = ModelConfig(input_dim=16, hidden_dims=(32,), feature_dim=16, unfreeze=2,
                         dropout=0.0)
        bundle = build_model(mc, pairs=3, seed=100 + trial)
        warm = M3sdaStepper(bundle, AdaptationConfig(strategy="m3sda_beta", optimizer="adam",
                                                     lr=1e-3, seed=trial),
                            np.random.default_rng(trial))
        batches = []
        for ds in corpus.sources:
            idx = rng.integers(0, ds.n, size=64)
            batches.append((ds.features[idx], ds.labels[idx]))
        x_t = corpus.target.features[rng.integers(0, corpus.target.n, size=64)]
        for _ in range(150):
            warm.step_classify(batches, x_t)
        stepper = M3sdaStepper(bundle, AdaptationConfig(strategy="m3sda_beta", optimizer="sgd",
                                                        lr=1e-3, seed=trial),
                               np.random.default_rng(trial))
        before = stepper.discrepancy_eval(x_t)
        stepper.step_max_discrepancy(batches, x_t)
        mid = stepper.discrepancy_eval(x_t)
        stepper.step_min_discrepancy(x_t)
        after = stepper.discrepancy_eval(x_t)
        up2 += mid >= before
        down3 += after <= mid
    assert up2 == trials
    assert down3 == trials


def test_m3sda_pair_count_mismatch():
    sources = _three_sources(seed0=60)
    target = _shifted_target(seed=65)
    bundle = _model(seed=11, pairs=2)
    with pytest.raises(ConfigError, match="pairs"):
        train_m3sda_beta(bundle, sources, target.unlabeled(),
                         AdaptationConfig(strategy="m3sda_beta", epochs=1, warmup=0))


def test_m3sda_single_source_degrades_to_pairworthy_m2s2da():
    source = [_blobs(n=200, seed=70)]
    target = _shifted_target(n=200, seed=71)
    bundle = _model(seed=12, pairs=1)
    cfg = AdaptationConfig(strategy="m3sda_beta", epochs=2, warmup=0, batch_size=40, seed=5)
    history = train_m3sda_beta(bundle, source, target.unlabeled(), cfg)
    assert len(history.records) == 2


def test_m3sda_determinism():
    sources = _three_sources(seed0=80)
    target = _shifted_target(n=300, seed=85)
    cfg = AdaptationConfig(strategy="m3sda_beta", epochs=2, warmup=0, batch_size=60, seed=6)

    def run():
        bundle = _model(seed=13, pairs=3)
        train_m3sda_beta(bundle, sources, target.unlabeled(), cfg)
        return bundle.snapshot()

    a, b = run(), run()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


# ----------------------------------------------------------------------
# online model selection


def _train_vanilla_blobs(epochs):
    train, val = _blobs(n=200, seed=90, gap=0.5), _blobs(n=100, seed=91, gap=0.5)
    bundle = _model(seed=20)
    cfg = AdaptationConfig(strategy="vanilla", epochs=epochs, warmup=2, batch_size=32, lr=1e-2,
                           seed=4)
    return bundle, train_vanilla(bundle, train, cfg, val=val)


def _train_m3sda_blobs(epochs):
    sources = [_blobs(n=120, seed=92 + i, gap=0.5) for i in range(2)]
    target, val = _shifted_target(n=120, seed=95), _blobs(n=100, seed=91, gap=0.5)
    bundle = _model(seed=21, pairs=2)
    cfg = AdaptationConfig(strategy="m3sda_beta", epochs=epochs, warmup=2, batch_size=40,
                           lr=3e-3, seed=4)
    return bundle, train_m3sda_beta(bundle, sources, target.unlabeled(), cfg, val=val)


@pytest.mark.parametrize("train", [_train_vanilla_blobs, _train_m3sda_blobs])
def test_kept_snapshot_is_the_selected_epoch(train):
    _, history = train(10)
    selected = select_model_epoch(history.val_f1_series(), warmup=2)
    assert selected < 10  # the snapshot must not simply be the final state
    retrained, _ = train(selected)
    for name, p in retrained.parameters():
        assert history.selected_snapshot[name].tobytes() == p.data.tobytes(), name


# ----------------------------------------------------------------------
# ensemble prediction


def test_ensemble_of_identical_heads_equals_single():
    cfg = ModelConfig(input_dim=3, hidden_dims=(), feature_dim=4, unfreeze=0)
    bundle = build_model(cfg, pairs=2, seed=14)
    for _, p in bundle.head.parameters():
        p.data[1:] = p.data[0]  # every head a copy of head 0
    x = np.random.default_rng(1).normal(size=(6, 3))
    ens = predict_ensemble(bundle, x).data
    single = T.softmax(bundle.forward(Tensor(x), training=False)).data[0]
    assert np.allclose(ens, single, atol=1e-12)


def test_ensemble_averages_opposite_heads():
    cfg = ModelConfig(input_dim=2, hidden_dims=(), feature_dim=2, unfreeze=0)
    bundle = build_model(cfg, pairs=1, seed=15)
    head = bundle.head
    head.weight1.data[:] = 0.0
    head.bias1.data[:] = 0.0
    head.weight2.data[:] = 0.0
    head.bias2.data[:] = [[50.0, -50.0], [-50.0, 50.0]]
    probs = predict_ensemble(bundle, np.zeros((3, 2))).data
    assert np.allclose(probs, 0.5, atol=1e-12)


def test_ensemble_rows_sum_to_one():
    cfg = ModelConfig(input_dim=4, hidden_dims=(6,), feature_dim=5, unfreeze=0)
    bundle = build_model(cfg, pairs=3, seed=16)
    x = np.random.default_rng(2).normal(size=(11, 4))
    probs = predict_ensemble(bundle, x).data
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("pairs", [0, 3])
def test_predict_labels_builds_no_graph(pairs, monkeypatch):
    cfg = ModelConfig(input_dim=4, hidden_dims=(6,), feature_dim=5, unfreeze=2)
    bundle = build_model(cfg, pairs, seed=17)
    x = np.random.default_rng(3).normal(size=(20, 4))
    # the labels as computed with the graph recorded
    probs = T.softmax(bundle.forward(Tensor(x)))
    assert probs._grad_fn is not None
    expected = np.argmax(probs.data.sum(axis=0), axis=1)

    recorded = []
    result = T._result

    def spy(*args):
        out = result(*args)
        recorded.append(out._grad_fn is not None)
        return out

    monkeypatch.setattr(T, "_result", spy)
    labels = predict_labels(bundle, x)
    assert recorded and not any(recorded)
    assert labels.tolist() == expected.tolist()


@pytest.mark.parametrize("pairs", [0, 3])
@pytest.mark.parametrize("n", [0, 1, _PREDICT_BLOCK - 1, _PREDICT_BLOCK, _PREDICT_BLOCK + 1, 2000])
def test_blocked_labels_equal_the_whole_array_argmax(pairs, n):
    bundle = build_model(ModelConfig(), pairs, seed=18)
    x = np.random.default_rng(n).normal(size=(n, 16))
    with T.no_grad():
        scores = predict_ensemble(bundle, x).data if pairs else bundle.forward(Tensor(x)).data[0]
    labels = predict_labels(bundle, x)
    assert labels.dtype == np.int64 and labels.shape == (n,)
    assert labels.tobytes() == np.argmax(scores, axis=1).tobytes()


@pytest.mark.parametrize("pairs", [0, 3])
def test_predict_labels_memory_does_not_grow_with_the_rows(pairs):
    bundle = build_model(ModelConfig(), pairs, seed=19)
    x = np.random.default_rng(4).normal(size=(20000, 16))
    predict_labels(bundle, x[:10])  # first-call allocations are not the rows'
    tracemalloc.start()
    try:
        predict_labels(bundle, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole array in one pass would hold 14.7 MiB with one head, 33.7 MiB with six
    assert peak < 2 * 2**20


def test_pair_set_from_bundle_validates():
    single = build_model(ModelConfig(input_dim=2, hidden_dims=(), feature_dim=2, unfreeze=0),
                         seed=0)
    with pytest.raises(ConfigError):
        M3sdaStepper(single, AdaptationConfig(strategy="m3sda_beta"), np.random.default_rng(0))


# ----------------------------------------------------------------------
# dataset plumbing


def test_domain_dataset_split_rows():
    ds = DomainDataset(
        "d", np.arange(10, dtype=float).reshape(5, 2), np.array([0, 1, 0, 1, 1]),
        np.array(["train", "val", "train", "train", "val"]),
    )
    train = ds.rows("train")
    assert train.n == 3
    assert train.labels.tolist() == [0, 0, 1]
    with pytest.raises(DegenerateInputError):
        DomainDataset("x", np.zeros((2, 2))).rows("train")


def test_domain_dataset_validation():
    with pytest.raises(ShapeError):
        DomainDataset("d", np.zeros(5))
    with pytest.raises(ShapeError):
        DomainDataset("d", np.zeros((5, 2)), np.zeros(4))


# ----------------------------------------------------------------------
# minibatch streams


@pytest.mark.parametrize("n,batch_size", [(10, 3), (10, 10), (7, 4), (3, 8), (1, 5), (64, 64)])
def test_minibatch_stream_matches_a_list_queue(n, batch_size):
    features = np.arange(n * 2, dtype=np.float64).reshape(n, 2)
    labels = np.arange(n) % 2
    stream = _MinibatchStream(features, labels, batch_size, np.random.default_rng(n))
    rng, queue = np.random.default_rng(n), []
    for _ in range(25):
        while len(queue) < batch_size:
            queue.extend(rng.permutation(n).tolist())
        idx, queue = queue[:batch_size], queue[batch_size:]
        x, y = stream.next()
        assert x.tobytes() == features[idx].tobytes()
        assert y.tolist() == labels[idx].tolist()
    unlabeled = _MinibatchStream(features, None, batch_size, np.random.default_rng(0))
    assert unlabeled.next()[1] is None


# ----------------------------------------------------------------------
# graph size per backward


def _nodes_per_backward(monkeypatch, train) -> list[int]:
    """The number of interior graph nodes each ``backward`` call of
    ``train()`` walks, in call order."""
    counts = []
    backward = Tensor.backward

    def counting(loss):
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen and node._grad_fn is not None:
                seen.add(id(node))
                stack.extend(node._parents)
        counts.append(len(seen))
        backward(loss)

    monkeypatch.setattr(Tensor, "backward", counting)
    train()
    return counts


@pytest.mark.parametrize("leg,per_iteration", [
    ("vanilla", [3]),  # extractor, head, CE
    ("m2s2da", [7]),  # two extractors, head, CE, MD2, its weight, the sum
    ("lora", [3]),  # as vanilla: the adapters fold into the extractor node
    ("m3sda_beta", [9, 6, 4]),  # steps 1, 2 and 3
])
def test_nodes_per_backward_are_pinned(monkeypatch, leg, per_iteration):
    # two iterations of one epoch; a test failure here, not a slower
    # benchmark, is where an extra node per step first shows
    cfg = AdaptationConfig(strategy="vanilla" if leg == "lora" else leg, epochs=1, warmup=0,
                           batch_size=64, seed=0)
    sources = [_blobs(n=128, seed=s) for s in (80, 81, 82)]
    target = _shifted_target(n=128, seed=83).unlabeled()
    if leg == "lora":
        bundle = build_model(ModelConfig(input_dim=2, hidden_dims=(8,), feature_dim=8,
                                         unfreeze=0, adaptation="lora", lora_rank=4), 0, 7)
    else:
        bundle = _model(seed=7, pairs=3 if leg == "m3sda_beta" else 0)
    train = {
        "vanilla": lambda: train_vanilla(bundle, sources[0], cfg),
        "lora": lambda: train_vanilla(bundle, sources[0], cfg),
        "m2s2da": lambda: train_m2s2da(bundle, sources[0], target, cfg),
        "m3sda_beta": lambda: train_m3sda_beta(bundle, sources, target, cfg),
    }[leg]
    assert _nodes_per_backward(monkeypatch, train) == per_iteration * 2
