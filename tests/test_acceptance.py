"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; a one-line PASS/FAIL per
criterion is printed in the terminal summary.
"""

import math
import time

import numpy as np

from rumexda import tensor as T
from rumexda.adaptation import (
    AdaptationConfig,
    M3sdaStepper,
    classifier_discrepancy,
    moment_distance_multi,
    moment_distance_single,
)
from rumexda.cli import main
from rumexda.evaluation import (
    ConfusionCounts,
    confusion_from_predictions,
    dummy_prior_simulate,
    f1_precision_recall,
    select_model_epoch,
    sigma_epochs,
)
from rumexda.experiment import run_strategy
from rumexda.nn import ModelConfig, build_model, trainable_parameter_count
from rumexda.synthdata import default_benchmark, generate
from rumexda.tensor import Tensor
from rumexda.tiling import (
    BBoxAnnotation,
    assign_label,
    enumerate_tiles,
    overlap_ratio,
)

from acceptancelog import record
from gradcheck import analytic_gradient, finite_difference, max_rel_error


def _check(criterion: int, ok: bool, detail: str) -> None:
    line = record(criterion, ok, detail)
    assert ok, line


# ----------------------------------------------------------------------
# 1. gradient suite


def _gradcheck(loss_fn, x, tol=1e-4) -> float:
    analytic = analytic_gradient(loss_fn, x)

    def scalar(arr):
        return loss_fn(Tensor(arr)).item()

    numeric = finite_difference(scalar, np.asarray(x, dtype=np.float64))
    return max_rel_error(analytic, numeric)


def test_criterion_1_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(2024)
    n_instances = 20
    worst: dict[str, float] = {}

    def weights(shape):
        return Tensor(rng.normal(size=shape))

    def away_from_kink(x, eps=1e-3):
        return np.where(np.abs(x) < eps, eps * 3, x)

    cases = {}
    cases["matmul"] = lambda: (
        (lambda t, w=weights((4, 3)): T.matmul(t, w).sum()), rng.normal(size=(5, 4)))
    cases["add"] = lambda: (
        (lambda t, o=rng.normal(size=(3, 4)): T.add(t, Tensor(o)).sum()), rng.normal(size=(3, 4)))
    cases["sub"] = lambda: (
        (lambda t, o=rng.normal(size=(3, 4)): T.sub(Tensor(o), t).sum()), rng.normal(size=(3, 4)))
    cases["mul"] = lambda: (
        (lambda t, o=rng.normal(size=(3, 4)): T.mul(t, Tensor(o)).mean()), rng.normal(size=(3, 4)))
    cases["pow_2"] = lambda: ((lambda t: T.pow_k(t, 2).sum()), rng.normal(size=(6,)))
    cases["pow_3"] = lambda: ((lambda t: T.pow_k(t, 3).mean()), rng.normal(size=(6,)))
    cases["relu"] = lambda: (
        (lambda t: T.relu(t).sum()), away_from_kink(rng.normal(size=(4, 4))))
    cases["exp"] = lambda: ((lambda t: T.exp(t).mean()), rng.normal(size=(4, 3)))
    cases["log"] = lambda: ((lambda t: T.log(t).sum()), np.abs(rng.normal(size=(4, 3))) + 0.5)
    cases["mean_axis"] = lambda: (
        (lambda t, w=weights((5,)): T.mul(T.reduce_mean(t, axis=0), w).sum()),
        rng.normal(size=(6, 5)))
    cases["sum_axis"] = lambda: (
        (lambda t, w=weights((4,)): T.mul(T.reduce_sum(t, axis=1), w).sum()),
        rng.normal(size=(4, 3)))
    cases["l2_norm"] = lambda: ((lambda t: T.l2_norm(t)), rng.normal(size=(7,)) + 2.0)
    cases["transpose"] = lambda: (
        (lambda t, w=weights((5, 2)): T.matmul(T.transpose(t), w).sum()),
        rng.normal(size=(5, 4)))
    cases["add_bias"] = lambda: (
        (lambda t, b=rng.normal(size=4): T.pow_k(T.add_bias(t, Tensor(b)), 2).sum()),
        rng.normal(size=(6, 4)))
    cases["softmax"] = lambda: (
        (lambda t, w=rng.normal(size=(5, 2)): T.mul(T.softmax(t), Tensor(w)).sum()),
        rng.normal(size=(5, 2)) * 3)

    def dropout_case():
        seed = int(rng.integers(0, 2**31))

        def loss(t):
            return T.dropout(t, 0.3, training=True, rng=np.random.default_rng(seed)).sum()

        return loss, rng.normal(size=(5, 6))

    cases["dropout"] = dropout_case

    def ce_case():
        labels = rng.integers(0, 2, size=6)
        cw = (0.5, 2.0) if rng.random() < 0.5 else None
        return (lambda t: T.softmax_cross_entropy(t, labels, cw)), rng.normal(size=(6, 2)) * 2

    cases["loss_cross_entropy"] = ce_case

    def md2_single_case():
        z_t = rng.normal(size=(7, 4))
        return (lambda t: moment_distance_single(t, Tensor(z_t))), rng.normal(size=(5, 4))

    cases["loss_md2_single"] = md2_single_case

    def md2_multi_case():
        others = [Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(4, 4)))]
        z_t = rng.normal(size=(5, 4))
        return (
            lambda t: moment_distance_multi([t, *others], Tensor(z_t))
        ), rng.normal(size=(5, 4))

    cases["loss_md2_multi"] = md2_multi_case

    def discrepancy_case():
        p2 = rng.random((6, 2)) * 0.4
        p1 = p2 + 0.1 + 0.4 * rng.random((6, 2))
        return (lambda t: classifier_discrepancy(t, Tensor(p2))), p1

    cases["loss_discrepancy"] = discrepancy_case

    # fused and stacked ops, added after the cases above so their draws are unchanged
    cases["linear"] = lambda: (
        (lambda t, w=weights((3, 4)), b=weights((3,)): T.pow_k(T.linear(t, w, b), 2).sum()),
        rng.normal(size=(5, 4)))
    cases["linear_weight"] = lambda: (
        (lambda t, x=weights((5, 4)), b=weights((3,)): T.pow_k(T.linear(x, t, b), 2).sum()),
        rng.normal(size=(3, 4)))

    def linear_stack_case():
        ws = Tensor(np.stack([rng.normal(size=(3, 4)) for _ in range(3)]))
        bs = Tensor(np.stack([rng.normal(size=(3,)) for _ in range(3)]))
        other = weights((5, 4))
        # one input feeds heads 0 and 2, as a shared feature batch does
        return (
            lambda t: T.pow_k(T.linear_stack([t, other, t], ws, bs), 2).sum()
        ), rng.normal(size=(5, 4))

    cases["linear_stack"] = linear_stack_case

    def linear_stack_weight_case():
        x, w0 = weights((2, 5, 4)), rng.normal(size=(3, 4))
        bs = Tensor(np.stack([rng.normal(size=(3,)) for _ in range(2)]))
        # the point spans both slabs, so the gradient is checked over the stack
        return (lambda t: T.pow_k(T.linear_stack(x, t, bs), 2).sum()), np.stack(
            [w0, rng.normal(size=(3, 4))])

    cases["linear_stack_weight"] = linear_stack_weight_case
    cases["softmax_stack"] = lambda: (
        (lambda t, w=rng.normal(size=(3, 5, 2)): T.mul(T.softmax(t), Tensor(w)).sum()),
        rng.normal(size=(3, 5, 2)) * 3)

    def ce_stack_case():
        labels = rng.integers(0, 2, size=(4, 6))
        cw = (0.5, 2.0) if rng.random() < 0.5 else None
        return (
            lambda t: T.softmax_cross_entropy(t, labels, cw)
        ), rng.normal(size=(4, 6, 2)) * 2

    cases["loss_cross_entropy_stack"] = ce_stack_case

    def pair_discrepancy_case():
        second = rng.random((2, 6, 2)) * 0.4
        sign = rng.choice([-1.0, 1.0], size=second.shape)
        first = second + sign * (0.1 + 0.4 * rng.random(second.shape))
        return T.pair_discrepancy, np.stack([first[0], second[0], first[1], second[1]])

    cases["loss_pair_discrepancy"] = pair_discrepancy_case

    def moment_distance_case():
        # 1 to 3 sources; the point is one of them or the target
        batches = [Tensor(rng.normal(size=(int(rng.integers(2, 7)), 4)))
                   for _ in range(int(rng.integers(2, 5)))]
        slot = int(rng.integers(0, len(batches)))

        def loss(t):
            zs = batches[:slot] + [t] + batches[slot + 1:]
            return T.moment_distance(zs[:-1], zs[-1])

        return loss, rng.normal(size=(int(rng.integers(2, 7)), 4))

    cases["loss_moment_distance"] = moment_distance_case

    # the fused model forward, added after the cases above so their draws are unchanged
    def mlp_case():
        # a plain block, then a LoRA block; the point is the input rows
        layers = [(weights((5, 4)), weights((5,))),
                  (weights((3, 5)), weights((3,)), weights((2, 5)), weights((3, 2)), 0.5)]
        return (lambda t: T.pow_k(T.mlp(t, layers), 2).sum()), rng.normal(size=(6, 4))

    cases["mlp"] = mlp_case

    def mlp_lora_case():
        # the point is a LoRA down factor
        x, w, b, up = weights((6, 4)), weights((3, 4)), weights((3,)), weights((3, 2))
        return (lambda t: T.pow_k(T.mlp(x, [(w, b, t, up, 0.5)]), 2).sum()
                ), rng.normal(size=(2, 4))

    cases["mlp_lora"] = mlp_lora_case

    def head_stack_case():
        # one input feeds heads 0 and 2; each evaluation draws the same dropout mask
        params = [weights(s) for s in ((3, 4, 4), (3, 4), (3, 2, 4), (3, 2))]
        other, seed = weights((5, 4)), int(rng.integers(0, 2**31))
        return (lambda t: T.pow_k(T.head_stack([t, other, t], *params, 0.3, True,
                                                np.random.default_rng(seed)), 2).sum()
                ), rng.normal(size=(5, 4))

    cases["head_stack"] = head_stack_case

    def head_stack_weight_case():
        # the point is the first layer's weight stack, under a shared input
        x, b1, w2, b2 = weights((5, 4)), weights((2, 4)), weights((2, 2, 4)), weights((2, 2))
        return (lambda t: T.pow_k(T.head_stack(x, t, b1, w2, b2, 0.3, False), 2).sum()
                ), rng.normal(size=(2, 4, 4))

    cases["head_stack_weight"] = head_stack_weight_case

    for name, make in cases.items():
        for _ in range(n_instances):
            loss_fn, x = make()
            err = _gradcheck(loss_fn, x)
            worst[name] = max(worst.get(name, 0.0), err)

    elapsed = time.time() - start
    worst_overall = max(worst.values())
    ok = worst_overall < 1e-4 and elapsed < 60
    _check(
        1, ok,
        f"{len(cases)} ops/losses x {n_instances} instances, worst rel err "
        f"{worst_overall:.2e} (< 1e-4), {elapsed:.1f}s (< 60s)",
    )


# ----------------------------------------------------------------------
# 2. MD2 axioms


def test_criterion_2_md2_axioms():
    rng = np.random.default_rng(7)
    hand_single = moment_distance_single(Tensor([[1.0, 0.0]]), Tensor([[0.0, 0.0]])).item()
    hand_multi = moment_distance_multi(
        [Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])], Tensor([[0.0, 0.0]])
    ).item()
    ok = abs(hand_single - 2.0) <= 1e-12
    ok &= abs(hand_multi - 2.0 * (1.0 + math.sqrt(2.0))) <= 1e-12

    max_asym = 0.0
    max_zero = 0.0
    max_n1_gap = 0.0
    nonneg = True
    for _ in range(1000):
        a = rng.normal(size=(int(rng.integers(2, 10)), 5))
        b = rng.normal(size=(int(rng.integers(2, 10)), 5))
        ab = moment_distance_single(Tensor(a), Tensor(b)).item()
        ba = moment_distance_single(Tensor(b), Tensor(a)).item()
        nonneg &= ab >= 0.0
        max_asym = max(max_asym, abs(ab - ba))
        max_zero = max(max_zero, moment_distance_single(Tensor(a), Tensor(a)).item())
        max_n1_gap = max(
            max_n1_gap, abs(ab - moment_distance_multi([Tensor(a)], Tensor(b)).item())
        )
    ok &= nonneg and max_asym <= 1e-12 and max_zero <= 1e-12 and max_n1_gap <= 1e-12
    _check(
        2, ok,
        f"hand values exact, 1000 random pairs: zero<= {max_zero:.1e}, "
        f"asym<={max_asym:.1e}, N=1 gap<={max_n1_gap:.1e} (all <= 1e-12)",
    )


# ----------------------------------------------------------------------
# 3. tiling oracle


def test_criterion_3_tiling_oracle():
    start = time.time()
    rng = np.random.default_rng(99)
    side = 518
    coverage_ok = True
    for _ in range(50):
        w = int(rng.integers(side, 3001))
        h = int(rng.integers(side, 3001))
        counts = np.zeros((h, w), dtype=np.uint8)
        for x, y, _c in enumerate_tiles(w, h, side):
            counts[y : y + side, x : x + side] = 1
        coverage_ok &= bool(counts.all())

    overlap_ok = True
    for _ in range(1000):
        x0, y0 = (int(v) for v in rng.integers(-200, 700, size=2))
        bw, bh = (int(v) for v in rng.integers(1, 600, size=2))
        box = BBoxAnnotation("img", x0, y0, x0 + bw, y0 + bh, "rumex")
        mask = np.zeros((side, side), dtype=bool)
        mx0, my0 = max(x0, 0), max(y0, 0)
        mx1, my1 = min(x0 + bw, side), min(y0 + bh, side)
        if mx1 > mx0 and my1 > my0:
            mask[my0:my1, mx0:mx1] = True
        oracle = int(mask.sum()) / (side * side)
        overlap_ok &= overlap_ratio(box, 0, 0, side) == oracle

    elapsed = time.time() - start
    ok = coverage_ok and overlap_ok and elapsed < 120
    _check(
        3, ok,
        f"50 sizes fully covered, 1000 boxes exact vs rasterized mask, "
        f"{elapsed:.1f}s (< 120s)",
    )


# ----------------------------------------------------------------------
# 4. label rule


def test_criterion_4_label_rule():
    side = 518
    r_th = 0.1
    ok = True
    # box heights swept so r crosses 0 and the threshold from both sides
    for rows in range(0, side + 1, 7):
        boxes = [] if rows == 0 else [BBoxAnnotation("i", 0, 0, side, rows, "rumex")]
        label, r = assign_label(0, 0, side, boxes, r_th=r_th)
        if r == 0.0:
            ok &= label == 0
        elif r > r_th:
            ok &= label == 1
        else:
            ok &= label == 2
        ok &= r == rows / side
    # straddle the threshold: 51/518 < 0.1 < 52/518
    for rows in (51, 52):
        label, r = assign_label(
            0, 0, side, [BBoxAnnotation("i", 0, 0, side, rows, "rumex")], r_th=r_th
        )
        ok &= (label == 2) == (r <= r_th)
        ok &= (label == 1) == (r > r_th)
    _check(4, ok, "labels follow {r=0 -> 0, 0<r<=0.1 -> 2, r>0.1 -> 1} exactly")


# ----------------------------------------------------------------------
# 5. alternation contracts


def _benchmark_corpus(seed, n_samples=None):
    kwargs = {} if n_samples is None else {"n_samples": n_samples}
    sources, target = default_benchmark(**kwargs)
    return generate(sources, target, seed=seed)


def test_criterion_5_m3sda_alternation_contracts():
    corpus = _benchmark_corpus(seed=0)
    model_cfg = ModelConfig(input_dim=16, hidden_dims=(32,), feature_dim=16, unfreeze=2)
    train_cfg = AdaptationConfig(strategy="m3sda_beta", lam=0.5, epochs=20, seed=0)

    stash = {}
    violations = [0]

    def observer(phase, iteration, bundle):
        if phase == "step2_pre":
            stash["g"] = [p.data.tobytes() for _, p in bundle.extractor_trainable_parameters()]
        elif phase == "step2_post":
            now = [p.data.tobytes() for _, p in bundle.extractor_trainable_parameters()]
            if now != stash["g"]:
                violations[0] += 1
        elif phase == "step3_pre":
            stash["heads"] = [p.data.tobytes() for _, p in bundle.head_trainable_parameters()]
        elif phase == "step3_post":
            now = [p.data.tobytes() for _, p in bundle.head_trainable_parameters()]
            if now != stash["heads"]:
                violations[0] += 1

    run_strategy(corpus.sources, corpus.target, model_cfg, train_cfg, step_observer=observer)
    freeze_ok = violations[0] == 0

    # one-step monotonicity at the alternation's operating point: each trial
    # re-initializes the network, settles the classify step, then audits a
    # single SGD step at lr = 1e-3 on a fixed batch
    rng = np.random.default_rng(0)
    trials = 20
    up2 = down3 = 0
    small = _benchmark_corpus(seed=1, n_samples=400)
    for trial in range(trials):
        mc = ModelConfig(input_dim=16, hidden_dims=(32,), feature_dim=16, unfreeze=2,
                         dropout=0.0)
        bundle = build_model(mc, pairs=3, seed=3000 + trial)
        warm = M3sdaStepper(
            bundle,
            AdaptationConfig(strategy="m3sda_beta", optimizer="adam", lr=1e-3, seed=trial),
            np.random.default_rng(trial),
        )
        batches = []
        for ds in small.sources:
            idx = rng.integers(0, ds.n, size=64)
            batches.append((ds.features[idx], ds.labels[idx]))
        x_t = small.target.features[rng.integers(0, small.target.n, size=64)]
        for _ in range(150):
            warm.step_classify(batches, x_t)
        stepper = M3sdaStepper(
            bundle,
            AdaptationConfig(strategy="m3sda_beta", optimizer="sgd", lr=1e-3, seed=trial),
            np.random.default_rng(trial),
        )
        before = stepper.discrepancy_eval(x_t)
        stepper.step_max_discrepancy(batches, x_t)
        mid = stepper.discrepancy_eval(x_t)
        stepper.step_min_discrepancy(x_t)
        after = stepper.discrepancy_eval(x_t)
        up2 += mid >= before
        down3 += after <= mid

    mono_ok = up2 >= math.ceil(0.95 * trials) and down3 >= math.ceil(0.95 * trials)
    ok = freeze_ok and mono_ok
    _check(
        5, ok,
        f"freeze contracts bitwise over a full run; one-step direction "
        f"{up2}/{trials} up in step 2, {down3}/{trials} down in step 3 (>= 95%)",
    )


# ----------------------------------------------------------------------
# 6. DA benefit at desk scale


def test_criterion_6_da_benefit():
    start = time.time()
    seeds = range(5)
    model_kwargs = dict(input_dim=16, hidden_dims=(32,), feature_dim=16, unfreeze=2)
    results = {"vanilla": [], "m2s2da": [], "m3sda_beta": []}
    for seed in seeds:
        corpus = _benchmark_corpus(seed=seed)
        for strategy in results:
            model_cfg = ModelConfig(**model_kwargs)
            train_cfg = AdaptationConfig(strategy=strategy, lam=0.5, epochs=20, seed=seed)
            _, history = run_strategy(
                corpus.sources, corpus.target, model_cfg, train_cfg,
                eval_targets=[corpus.target],
            )
            selected = select_model_epoch(history.val_f1_series(), train_cfg.warmup)
            results[strategy].append(history.records[selected - 1].median_target_f1)
    med = {k: float(np.median(v)) for k, v in results.items()}
    elapsed = time.time() - start
    ordering = med["m3sda_beta"] >= med["m2s2da"] >= med["vanilla"]
    gap = med["m3sda_beta"] - med["vanilla"]
    ok = ordering and gap >= 0.05 and elapsed < 900
    _check(
        6, ok,
        f"median target F1 over 5 seeds: vanilla={med['vanilla']:.3f} <= "
        f"m2s2da={med['m2s2da']:.3f} <= m3sda_beta={med['m3sda_beta']:.3f}, "
        f"gap={gap:.3f} (>= 0.05), {elapsed:.0f}s (< 900s)",
    )


# ----------------------------------------------------------------------
# 7. LoRA contracts


def test_criterion_7_lora_contracts():
    rng = np.random.default_rng(0)
    ok = True

    # zero-init identity against the same-seed frozen base model
    base_cfg = ModelConfig(input_dim=12, hidden_dims=(16,), feature_dim=12, unfreeze=0)
    lora_cfg = ModelConfig(input_dim=12, hidden_dims=(16,), feature_dim=12, unfreeze=0,
                           adaptation="lora", lora_rank=8)
    base, lora = build_model(base_cfg, seed=5), build_model(lora_cfg, seed=5)
    x = Tensor(rng.normal(size=(32, 12)))
    ok &= float(np.max(np.abs(base.forward(x).data - lora.forward(x).data))) == 0.0

    # frozen base is bitwise invariant over a full training run
    corpus = _benchmark_corpus(seed=2, n_samples=300)
    model_cfg = ModelConfig(input_dim=16, hidden_dims=(32,), feature_dim=16, unfreeze=0,
                            adaptation="lora", lora_rank=8)
    train_cfg = AdaptationConfig(strategy="vanilla", epochs=8, seed=1)
    bundle = build_model(model_cfg, seed=1)
    before = {n: p.data.tobytes() for n, p in bundle.extractor.parameters()}
    from rumexda.adaptation import train_vanilla
    from rumexda.experiment import pool_domains, split_sources

    train_sources, val = split_sources(corpus.sources)
    train_vanilla(bundle, pool_domains(train_sources, "pooled"), train_cfg, val=val)
    after = {n: p.data.tobytes() for n, p in bundle.extractor.parameters()}
    base_names = [n for n in before if "lora" not in n]
    adapter_names = [n for n in before if "lora" in n]
    ok &= all(before[n] == after[n] for n in base_names)
    ok &= any(before[n] != after[n] for n in adapter_names)

    # trainable count rule per adapted layer, for the full rank set
    counts_ok = True
    for rank in (8, 16, 32):
        d_in, d_out = 24, 10
        cfg = ModelConfig(input_dim=d_in, hidden_dims=(), feature_dim=d_out, unfreeze=0,
                          adaptation="lora", lora_rank=rank)
        b = build_model(cfg, seed=0)
        lora_count = sum(p.size for n, p in b.trainable_parameters() if "lora" in n)
        counts_ok &= lora_count == rank * (d_in + d_out)
        head_count = d_out * d_out + d_out + 2 * d_out + 2
        counts_ok &= trainable_parameter_count(b) == head_count + lora_count
    ok &= counts_ok
    _check(7, ok, "zero-init identity exact, base bitwise frozen over a run, "
                  "count = R*(d_in+d_out) for R in {8, 16, 32}")


# ----------------------------------------------------------------------
# 8. evaluation protocol


def test_criterion_8_evaluation_protocol():
    rng = np.random.default_rng(11)
    ok = True

    # metric identities on randomized fixtures against a per-tile tally
    for _ in range(100):
        n = int(rng.integers(1, 300))
        y_true = rng.choice([0, 1, 2], size=n, p=[0.55, 0.35, 0.1])
        y_pred = rng.integers(0, 2, size=n)
        counts = confusion_from_predictions(y_true, y_pred)
        tp = fp = fn = tn = 0
        for t_val, p_val in zip(y_true, y_pred):
            if t_val == 2:
                continue
            tp += t_val == 1 and p_val == 1
            fp += t_val == 0 and p_val == 1
            fn += t_val == 1 and p_val == 0
            tn += t_val == 0 and p_val == 0
        ok &= counts == ConfusionCounts(tp, fp, fn, tn)
        p, r, f1 = f1_precision_recall(counts)
        ok &= p == (tp / (tp + fp) if tp + fp else 0.0)
        ok &= r == (tp / (tp + fn) if tp + fn else 0.0)
        ok &= f1 == (2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)

    # warm-up rule on random histories
    for _ in range(200):
        history = rng.random(int(rng.integers(6, 50))).tolist()
        ok &= select_model_epoch(history, warmup=5) > 5

    # sigma over epochs against the direct formula
    max_gap = 0.0
    for _ in range(100):
        series = rng.random(int(rng.integers(10, 40))).tolist()
        tail = np.array(series[-10:])
        direct = float(np.sqrt(((tail - tail.mean()) ** 2).mean()))
        max_gap = max(max_gap, abs(sigma_epochs(series, window=10) - direct))
    ok &= max_gap <= 1e-12

    # dummy-prior baseline at pi = 0.1 over 1e5 tiles
    _, _, f1 = dummy_prior_simulate(0.1, 10_000, 90_000, np.random.default_rng(42))
    ok &= abs(f1 - 0.1) < 0.01
    _check(
        8, ok,
        f"100 fixtures exact, warm-up rule holds, sigma gap {max_gap:.1e} (<= 1e-12), "
        f"dummy F1 {f1:.4f} within 0.01 of 0.1",
    )


# ----------------------------------------------------------------------
# 9. CLI determinism


def test_criterion_9_cli_determinism(tmp_path):
    from rumexda.tiling import write_pnm

    ok = True
    rng = np.random.default_rng(0)
    images = tmp_path / "images"
    images.mkdir()
    write_pnm(images / "a.ppm", rng.integers(0, 256, size=(700, 900, 3), dtype=np.uint8))
    write_pnm(images / "b.pgm", rng.integers(0, 256, size=(560, 620), dtype=np.uint8))
    annotations = tmp_path / "boxes.csv"
    annotations.write_text(
        "image_id,x_min,y_min,x_max,y_max,class,plant_id\n"
        "a.ppm,40,40,420,400,rumex,p1\n"
        "a.ppm,500,200,560,260,rumex,p2\n"
        "b.pgm,100,100,400,380,rumex,p3\n"
    )

    # tile twice
    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    for out in (m1, m2):
        assert main(["tile", "--annotations", str(annotations), "--images-dir", str(images),
                     "--out", str(out), "--domain", "site0"]) == 0
    ok &= m1.read_bytes() == m2.read_bytes()

    # split twice
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (s1, s2):
        assert main(["split", "--manifest", str(m1), "--annotations", str(annotations),
                     "--out", str(out), "--mode", "pooled", "--val-fraction", "0.3",
                     "--seed", "3"]) == 0
    ok &= s1.read_bytes() == s2.read_bytes()

    # synth twice
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    for out in (c1, c2):
        assert main(["synth", "--out", str(out), "--samples", "120", "--seed", "6"]) == 0
    ok &= (c1 / "corpus.csv").read_bytes() == (c2 / "corpus.csv").read_bytes()
    ok &= (c1 / "specs.json").read_bytes() == (c2 / "specs.json").read_bytes()

    # train twice (checkpoint + history + resolved config)
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    for out in (r1, r2):
        assert main(["train", "--corpus", str(c1), "--out", str(out),
                     "--strategy", "m3sda_beta", "--epochs", "6", "--seed", "2"]) == 0
    for name in ("checkpoint.json", "history.jsonl", "config.txt"):
        ok &= (r1 / name).read_bytes() == (r2 / name).read_bytes()

    # eval twice
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    for out in (e1, e2):
        assert main(["eval", "--checkpoint", str(r1 / "checkpoint.json"),
                     "--corpus", str(c1), "--out", str(out)]) == 0
    for name in ("report.txt", "flights.csv", "summary.json"):
        ok &= (e1 / name).read_bytes() == (e2 / name).read_bytes()

    # report twice
    p1, p2 = tmp_path / "p1", tmp_path / "p2"
    for out in (p1, p2):
        assert main(["report", "--history", str(r1 / "history.jsonl"),
                     "--out", str(out), "--window", "4"]) == 0
    for name in ("selection.txt", "f1_vs_epoch.csv", "f1_vs_params.csv"):
        ok &= (p1 / name).read_bytes() == (p2 / name).read_bytes()

    _check(9, ok, "tile/split/synth/train/eval/report reruns are byte-identical")
