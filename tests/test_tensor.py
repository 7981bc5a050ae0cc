import contextlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rumexda import tensor as T
from rumexda.errors import (
    ConfigError,
    DegenerateInputError,
    LabelError,
    MathDomainError,
    ShapeError,
    TrainingStateError,
)
from rumexda.nn import ModelConfig, build_model
from rumexda.optim import SGD, Adam
from rumexda.tensor import Tensor

from gradcheck import assert_gradients_match


# ----------------------------------------------------------------------
# matmul


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[3.0, 4.0], [5.0, 6.0]])
    out = T.matmul(eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_hand_value():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_gradient_vs_finite_differences():
    b = Tensor([[3.0], [4.0]])

    def loss(a):
        return T.matmul(a, b).sum()

    analytic, _ = assert_gradients_match(loss, [[1.0, 2.0]])
    # frozen from the finite-difference oracle: d sum(a.b) / da = [[3, 4]]
    assert np.allclose(analytic, [[3.0, 4.0]], atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(e.value)


# ----------------------------------------------------------------------
# elementwise


def test_relu_values():
    out = T.relu(Tensor([-1.0, 0.0, 2.0]))
    assert out.data.tolist() == [0.0, 0.0, 2.0]


def test_pow2_values():
    out = T.pow_k(Tensor([1.0, -2.0, 3.0]), 2)
    assert out.data.tolist() == [1.0, 4.0, 9.0]


def test_pow2_gradient():
    analytic, _ = assert_gradients_match(lambda t: T.pow_k(t, 2).sum(), [1.0, -2.0, 3.0])
    assert np.allclose(analytic, [2.0, -4.0, 6.0], atol=1e-12)


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_scalar_broadcast():
    t = Tensor([1.0, 2.0], requires_grad=True)
    out = T.mul(t, 3.0).sum()
    out.backward()
    assert np.allclose(t.grad, [3.0, 3.0])


def test_log_domain_error():
    with pytest.raises(MathDomainError):
        T.log(Tensor([1.0, 0.0]))


def test_relu_gradient_is_zero_at_zero():
    t = Tensor([0.0], requires_grad=True)
    T.relu(t).sum().backward()
    assert t.grad.tolist() == [0.0]


@pytest.mark.parametrize("op", ["add", "sub", "mul", "relu", "exp", "log"])
def test_elementwise_gradients_randomized(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    for _ in range(5):
        x = rng.normal(size=(3, 4))
        if op == "log":
            x = np.abs(x) + 0.5
        if op == "relu":
            # stay away from the kink where the subgradient convention bites
            x = np.where(np.abs(x) < 1e-3, 0.1, x)
        other = rng.normal(size=(3, 4))
        fns = {
            "add": lambda t: T.add(t, Tensor(other)).sum(),
            "sub": lambda t: T.sub(Tensor(other), t).sum(),
            "mul": lambda t: T.mul(t, Tensor(other)).mean(),
            "relu": lambda t: T.relu(t).sum(),
            "exp": lambda t: T.exp(t).mean(),
            "log": lambda t: T.log(t).sum(),
        }
        assert_gradients_match(fns[op], x)


# ----------------------------------------------------------------------
# reductions


def test_mean_over_batch_axis():
    out = T.reduce_mean(Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=0)
    assert out.data.tolist() == [3.0, 5.0]


def test_sum_of_empty_errors():
    with pytest.raises(DegenerateInputError):
        T.reduce_sum(Tensor([]))


def test_mean_gradient_is_inverse_count():
    t = Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
    t.mean().backward()
    assert np.allclose(t.grad, [0.25] * 4)


def test_reduction_axis_gradients():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 3))
    assert_gradients_match(lambda t: T.reduce_mean(t, axis=0).sum(), x)
    assert_gradients_match(lambda t: T.reduce_sum(t, axis=1).mean(), x)


# ----------------------------------------------------------------------
# l2 norm


def test_l2_norm_345():
    assert T.l2_norm(Tensor([3.0, 4.0])).item() == 5.0


def test_l2_norm_origin_subgradient():
    t = Tensor([0.0, 0.0], requires_grad=True)
    out = T.l2_norm(t)
    assert out.item() == 0.0
    out.backward()
    assert t.grad.tolist() == [0.0, 0.0]


def test_l2_norm_gradient():
    analytic, _ = assert_gradients_match(T.l2_norm, [3.0, 4.0])
    assert np.allclose(analytic, [0.6, 0.8], atol=1e-9)


# ----------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits_is_ln2():
    loss = T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), [1])
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-15)


def test_cross_entropy_confident_logits():
    loss = T.softmax_cross_entropy(Tensor([[10.0, -10.0]]), [0])
    assert loss.item() == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)


def test_cross_entropy_gradient_random_batch():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(4, 2))
    labels = rng.integers(0, 2, size=4)
    assert_gradients_match(lambda t: T.softmax_cross_entropy(t, labels), logits)


def test_cross_entropy_class_weights_gradient():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(5, 2))
    labels = rng.integers(0, 2, size=5)
    assert_gradients_match(
        lambda t: T.softmax_cross_entropy(t, labels, class_weights=(0.5, 2.0)), logits
    )


def test_cross_entropy_nonnegative_and_ln2_for_any_batch():
    rng = np.random.default_rng(13)
    for b in (1, 3, 17):
        labels = rng.integers(0, 2, size=b)
        loss = T.softmax_cross_entropy(Tensor(np.zeros((b, 2))), labels)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-15)
        loss = T.softmax_cross_entropy(Tensor(rng.normal(size=(b, 2))), labels)
        assert loss.item() >= 0.0


def test_cross_entropy_label_error():
    with pytest.raises(LabelError):
        T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), [2])


def test_cross_entropy_empty_batch():
    with pytest.raises(DegenerateInputError):
        T.softmax_cross_entropy(Tensor(np.zeros((0, 2))), [])


# ----------------------------------------------------------------------
# softmax


def test_softmax_rows_sum_to_one_and_gradient():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(4, 2)) * 5
    p = T.softmax(Tensor(x))
    assert np.allclose(p.data.sum(axis=1), 1.0)
    weights = rng.normal(size=(4, 2))
    assert_gradients_match(lambda t: T.mul(T.softmax(t), Tensor(weights)).sum(), x)


def test_softmax_is_binary_and_bitwise_the_last_axis_reductions():
    rng = np.random.default_rng(22)
    z = rng.normal(size=(3, 50, 2)) * 30
    g = rng.normal(size=z.shape)
    t = Tensor(z, requires_grad=True)
    p = T.softmax(t)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    ref = e / e.sum(axis=-1, keepdims=True)
    assert p.data.tobytes() == ref.tobytes()
    T.mul(p, Tensor(g)).sum().backward()
    assert t.grad.tobytes() == (ref * (g - (g * ref).sum(axis=-1, keepdims=True))).tobytes()
    with pytest.raises(ShapeError):
        T.softmax(Tensor(np.zeros((4, 3))))


def test_cross_entropy_is_bitwise_the_last_axis_reductions():
    rng = np.random.default_rng(23)
    z = rng.normal(size=(3, 50, 2)) * 30
    y = rng.integers(0, 2, size=(3, 50))
    t = Tensor(z, requires_grad=True)
    loss = T.softmax_cross_entropy(t, y)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    nll = m[..., 0] + np.log(e.sum(axis=-1)) - np.where(y == 1, z[..., 1], z[..., 0])
    ref = nll.sum(axis=-1) / 50
    assert loss.data.tobytes() == np.asarray(ref[0] + ref[1] + ref[2]).tobytes()
    loss.backward()
    p = e / e.sum(axis=-1, keepdims=True)
    p[..., 0] -= y == 0
    p[..., 1] -= y == 1
    assert t.grad.tobytes() == (p * (np.ones(y.shape) / 50)[..., None]).tobytes()


# ----------------------------------------------------------------------
# dropout


def test_dropout_p0_and_eval_are_identity():
    t = Tensor([1.0, 2.0, 3.0])
    assert T.dropout(t, 0.0, training=True, rng=np.random.default_rng(0)) is t
    assert T.dropout(t, 0.7, training=False) is t


def test_dropout_survivor_statistics():
    rng = np.random.default_rng(42)
    n = 200_000
    t = Tensor(np.ones(n))
    out = T.dropout(t, 0.3, training=True, rng=rng)
    survivors = np.count_nonzero(out.data) / n
    assert abs(survivors - 0.7) < 0.02
    assert abs(out.data.mean() - 1.0) < 0.02


def test_dropout_invalid_p():
    with pytest.raises(ConfigError):
        T.dropout(Tensor([1.0]), 1.0, training=True, rng=np.random.default_rng(0))


def test_dropout_gradient_with_frozen_mask():
    x = np.random.default_rng(5).normal(size=(6, 4))

    def loss(t):
        rng = np.random.default_rng(99)  # same mask on every evaluation
        return T.dropout(t, 0.3, training=True, rng=rng).sum()

    assert_gradients_match(loss, x)


# ----------------------------------------------------------------------
# backward mechanics


def test_backward_of_sum_gives_ones():
    t = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    t.sum().backward()
    assert t.grad.tolist() == [1.0, 1.0, 1.0]


def test_backward_accumulates_across_calls():
    t = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.pow_k(t, 2).sum()
    loss.backward()
    first = t.grad.copy()
    loss.backward()
    assert np.allclose(t.grad, 2 * first)


def _reference_backward(loss):
    """The engine as it was before leaves left the walk: every node, leaves
    included, in one topological order, and a leaf's grad set when the
    walk reaches it."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in seen)
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is not None:
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if pg is not None:
                    key = id(parent)
                    grads[key] = grads[key] + pg if key in grads else pg
        elif node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g


@pytest.mark.parametrize("seed", range(5))
def test_repeated_backward_with_shared_leaves_is_bitwise_the_reference_engine(seed):
    def graph():
        # w feeds five nodes and b three, at scales far apart, so the order
        # in which their contributions add up shows in the last bits
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        frozen = Tensor(rng.normal(size=(3, 4)))
        zs = [T.relu(T.linear(Tensor(rng.normal(size=(6, 4)) * s), w, b))
              for s in (1e-3, 1.0, 1e3)]
        loss = T.add(T.moment_distance(zs[:2], zs[2]),
                     T.mul(T.mul(w, frozen).sum(), T.pow_k(w, 2).sum()))
        return loss, (w, b, frozen)

    new, reference = graph(), graph()
    for _ in range(3):  # no zero_grad in between: the calls add up
        new[0].backward()
        _reference_backward(reference[0])
        assert _grad_bytes(new[1]) == _grad_bytes(reference[1])
    assert new[1][2].grad is None
    leaf = Tensor(2.0, requires_grad=True)
    leaf.backward()
    leaf.backward()
    assert leaf.grad == 2.0


def test_backward_requires_scalar():
    t = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        T.pow_k(t, 2).backward()


def test_shared_subexpression_sums_paths():
    # y = s + s with shared s must equal the duplicated construction y = s1 + s2
    t = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    s = T.pow_k(t, 2).sum()
    T.add(s, s).backward()
    shared = t.grad.copy()

    u = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    T.add(T.pow_k(u, 2).sum(), T.pow_k(u, 2).sum()).backward()
    assert np.allclose(shared, u.grad)


def test_composite_mlp_loss_gradient():
    rng = np.random.default_rng(33)
    w1 = rng.normal(size=(4, 3))
    w2 = rng.normal(size=(3, 2))
    x = rng.normal(size=(5, 4))
    labels = rng.integers(0, 2, size=5)

    def loss_wrt_w1(a):
        h = T.relu(T.matmul(Tensor(x), a))
        return T.softmax_cross_entropy(T.matmul(h, Tensor(w2)), labels)

    def loss_wrt_w2(b):
        h = T.relu(T.matmul(Tensor(x), Tensor(w1)))
        return T.softmax_cross_entropy(T.matmul(h, b), labels)

    assert_gradients_match(loss_wrt_w1, w1)
    assert_gradients_match(loss_wrt_w2, w2)


def test_gradients_finite_on_finite_inputs():
    rng = np.random.default_rng(44)
    x = Tensor(rng.normal(size=(8, 4)) * 10, requires_grad=True)
    z = T.relu(T.matmul(x, Tensor(rng.normal(size=(4, 2)))))
    loss = T.softmax_cross_entropy(z, rng.integers(0, 2, size=8))
    loss.backward()
    assert np.all(np.isfinite(x.grad))


def test_frozen_leaf_gets_no_grad():
    frozen = Tensor([1.0, 2.0], requires_grad=False)
    live = Tensor([3.0, 4.0], requires_grad=True)
    T.mul(frozen, live).sum().backward()
    assert frozen.grad is None
    assert live.grad is not None


# ----------------------------------------------------------------------
# fused linear and head stacks


def _three_node_linear(x, w, b):
    return T.add_bias(T.matmul(x, T.transpose(w)), b)


@pytest.mark.parametrize("seed", range(20))
def test_linear_is_bitwise_the_three_node_form(seed):
    rng = np.random.default_rng(seed)
    n, d_in, d_out = (int(v) for v in rng.integers(1, 40, size=3))
    x0, w0, b0 = rng.normal(size=(n, d_in)), rng.normal(size=(d_out, d_in)), rng.normal(size=d_out)
    upstream = Tensor(rng.normal(size=(n, d_out)))
    results = []
    for build in (T.linear, _three_node_linear):
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        out = build(x, w, b)
        T.mul(out, upstream).sum().backward()
        results.append([a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)])
    assert results[0] == results[1]


def test_linear_gradients_and_node_count():
    rng = np.random.default_rng(7)
    x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(3, 4)), rng.normal(size=3)
    assert_gradients_match(lambda t: T.pow_k(T.linear(t, Tensor(w), Tensor(b)), 2).sum(), x)
    assert_gradients_match(lambda t: T.pow_k(T.linear(Tensor(x), t, Tensor(b)), 2).sum(), w)
    assert_gradients_match(lambda t: T.pow_k(T.linear(Tensor(x), Tensor(w), t), 2).sum(), b)
    assert_gradients_match(lambda t: T.pow_k(T.linear(Tensor(x), t), 2).sum(), w)
    out = T.linear(Tensor(x), Tensor(w, requires_grad=True), Tensor(b))
    assert out._op == "linear" and len(out._parents) == 3
    with pytest.raises(ShapeError):
        T.linear(Tensor(x), Tensor(w.T))
    with pytest.raises(ShapeError):
        T.linear(Tensor(x), Tensor(w), Tensor(np.zeros(4)))


def test_linear_fills_no_gradient_for_a_frozen_weight():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w, b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=3))
    grads = T.linear(x, w, b)._grad_fn(np.ones((5, 3)))
    assert grads[0] is not None and grads[1] is None and grads[2] is None


def test_linear_stack_slices_are_bitwise_per_head_linear():
    rng = np.random.default_rng(9)
    shared, other = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    ws = [rng.normal(size=(3, 4)) for _ in range(3)]
    bs = [rng.normal(size=3) for _ in range(3)]
    g = rng.normal(size=(3, 6, 3))

    xa, oa = Tensor(shared, requires_grad=True), Tensor(other, requires_grad=True)
    wa = Tensor(np.stack(ws), requires_grad=True)
    ba = Tensor(np.stack(bs), requires_grad=True)
    out = T.linear_stack([xa, oa, xa], wa, ba)
    T.mul(out, Tensor(g)).sum().backward()

    xb, ob = Tensor(shared, requires_grad=True), Tensor(other, requires_grad=True)
    wb = [Tensor(w, requires_grad=True) for w in ws]
    bb = [Tensor(b, requires_grad=True) for b in bs]
    total = None
    for h, x in enumerate((xb, ob, xb)):
        term = T.mul(T.linear(x, wb[h], bb[h]), Tensor(g[h])).sum()
        assert out.data[h].tobytes() == T.linear(x, wb[h], bb[h]).data.tobytes()
        total = term if total is None else T.add(total, term)
    total.backward()
    assert xa.grad.tobytes() == xb.grad.tobytes()
    assert oa.grad.tobytes() == ob.grad.tobytes()
    assert wa.grad.tobytes() == np.stack([w.grad for w in wb]).tobytes()
    assert ba.grad.tobytes() == np.stack([b.grad for b in bb]).tobytes()


def test_linear_stack_gradients_and_shape_errors():
    rng = np.random.default_rng(10)
    ws = Tensor(np.stack([rng.normal(size=(3, 4)) for _ in range(2)]))
    bs = Tensor(np.stack([rng.normal(size=3) for _ in range(2)]))
    x3 = rng.normal(size=(2, 5, 4))

    def square_sum(out):
        return T.pow_k(out, 2).sum()

    assert_gradients_match(lambda t: square_sum(T.linear_stack(t, ws, bs)), x3)
    assert_gradients_match(lambda t: square_sum(T.linear_stack([t, t], ws, bs)), x3[0])
    assert_gradients_match(lambda t: square_sum(T.linear_stack(Tensor(x3), t, bs)),
                           np.stack([ws.data[0], rng.normal(size=(3, 4))]))
    assert_gradients_match(lambda t: square_sum(T.linear_stack(Tensor(x3), ws, t)),
                           np.stack([rng.normal(size=3), bs.data[1]]))
    with pytest.raises(ShapeError):
        T.linear_stack([Tensor(x3[0]), Tensor(x3[1][:4])], ws, bs)
    with pytest.raises(ShapeError):
        T.linear_stack(Tensor(x3), Tensor(ws.data[:1]), Tensor(bs.data[:1]))
    with pytest.raises(ShapeError):
        T.linear_stack(Tensor(x3), ws, Tensor(bs.data[:1]))
    with pytest.raises(ShapeError):
        T.linear_stack(Tensor(x3), Tensor(ws.data[0]), bs)


def test_softmax_of_a_stack_is_per_slice_softmax():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4, 2)) * 3
    stacked = T.softmax(Tensor(x)).data
    for h in range(3):
        assert stacked[h].tobytes() == T.softmax(Tensor(x[h])).data.tobytes()
    weights = rng.normal(size=(3, 4, 2))
    assert_gradients_match(lambda t: T.mul(T.softmax(t), Tensor(weights)).sum(), x)
    with pytest.raises(ShapeError):
        T.softmax(Tensor([1.0, 2.0]))


def test_cross_entropy_stack_is_the_head_order_sum():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(4, 7, 2)) * 2
    labels = rng.integers(0, 2, size=(4, 7))
    for cw in (None, (0.5, 2.0)):
        total = None
        for h in range(4):
            ce = T.softmax_cross_entropy(Tensor(logits[h]), labels[h], cw)
            total = ce if total is None else T.add(total, ce)
        stacked = T.softmax_cross_entropy(Tensor(logits), labels, cw)
        assert stacked.data.tobytes() == total.data.tobytes()
        assert_gradients_match(lambda t: T.softmax_cross_entropy(t, labels, cw), logits)
    with pytest.raises(ShapeError):
        T.softmax_cross_entropy(Tensor(logits), labels[:, :3])
    with pytest.raises(LabelError):
        T.softmax_cross_entropy(Tensor(logits), labels + 1)


def test_pair_discrepancy_shape_errors():
    with pytest.raises(ShapeError):
        T.pair_discrepancy(Tensor(np.zeros((3, 4, 2))))
    with pytest.raises(ShapeError):
        T.pair_discrepancy(Tensor(np.zeros((4, 2))))
    with pytest.raises(DegenerateInputError):
        T.pair_discrepancy(Tensor(np.zeros((2, 0, 2))))


# ----------------------------------------------------------------------
# fused model forward


def _unfused_mlp(x, layers):
    """The extractor as one linear (plus the LoRA leg) and one relu node per block."""
    for layer in layers:
        out = T.linear(x, layer[0], layer[1])
        if len(layer) == 5:
            down, up, scale = layer[2:]
            out = T.add(out, T.mul(T.linear(T.linear(x, down), up), scale))
        x = T.relu(out)
    return x


def _unfused_head(x, w1, b1, w2, b2, p, training, rng):
    hidden = T.dropout(T.relu(T.linear_stack(x, w1, b1)), p, training, rng)
    return T.linear_stack(hidden, w2, b2)


def _leaves(arrays, flags):
    return [Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)]


def _grad_bytes(tensors):
    return [None if t.grad is None else t.grad.tobytes() for t in tensors]


def _mlp_run(build, x0, x_flag, blocks, upstream):
    """Value and every leaf gradient of sum(build(x, layers) * upstream);
    ``blocks`` holds (arrays, requires_grad flags, scale or None) per block."""
    x = Tensor(x0, requires_grad=x_flag)
    layers, leaves = [], [x]
    for arrays, flags, scale in blocks:
        tensors = _leaves(arrays, flags)
        leaves += tensors
        layers.append(tuple(tensors) if scale is None else (*tensors, scale))
    out = build(x, layers)
    T.mul(out, Tensor(upstream)).sum().backward()
    return [out.data.tobytes()] + _grad_bytes(leaves)


def _random_blocks(rng, dims, flags, rank=0):
    blocks = []
    for i, trains in enumerate(flags):
        arrays = [rng.normal(size=(dims[i + 1], dims[i])), rng.normal(size=dims[i + 1])]
        if rank:
            arrays += [rng.normal(size=(rank, dims[i])), rng.normal(size=(dims[i + 1], rank))]
            blocks.append((arrays, (False, False, trains, trains), 0.75))
        else:
            blocks.append((arrays, (trains, trains), None))
    return blocks


@pytest.mark.parametrize("flags,rank,x_flag", [
    ((False, True, True), 0, False),  # a frozen leading block, as unfreeze=2 of 3
    ((False, True, True), 0, True),
    ((True, False, True), 0, False),  # a frozen block between trainable ones
    ((False, False, False), 0, True),  # only the input needs a gradient
    ((True, True, True), 3, False),  # LoRA on every block, base frozen
    ((True, True, True), 3, True),
    ((False, True, True), 2, False),  # LoRA with a frozen leading adapter
])
def test_mlp_is_bitwise_the_unfused_graph(flags, rank, x_flag):
    rng = np.random.default_rng(len(flags) * 10 + rank + 2 * sum(flags))
    dims = (5, 7, 6, 4)
    blocks = _random_blocks(rng, dims, flags, rank)
    x0, upstream = rng.normal(size=(9, dims[0])), rng.normal(size=(9, dims[-1]))
    fused = _mlp_run(T.mlp, x0, x_flag, blocks, upstream)
    assert fused == _mlp_run(_unfused_mlp, x0, x_flag, blocks, upstream)
    # a frozen tensor gets no gradient, a trainable one does
    expected = [x_flag] + [f for _, block_flags, _ in blocks for f in block_flags]
    assert [g is not None for g in fused[1:]] == expected


def test_mlp_stops_below_the_lowest_block_that_needs_a_gradient():
    rng = np.random.default_rng(3)
    layers = [(Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=4))),
              (Tensor(rng.normal(size=(2, 4)), requires_grad=True), Tensor(np.zeros(2)))]
    out = T.mlp(Tensor(rng.normal(size=(5, 3))), layers)
    assert out._op == "mlp" and len(out._parents) == 5
    grads = out._grad_fn(np.ones((5, 2)))
    assert [g is not None for g in grads] == [False, False, False, True, False]
    with T.no_grad():
        assert T.mlp(Tensor(rng.normal(size=(5, 3))), layers)._grad_fn is None
    with pytest.raises(ShapeError):
        T.mlp(Tensor(rng.normal(size=(5, 4))), layers)
    with pytest.raises(ShapeError):
        T.mlp(Tensor(rng.normal(size=(5, 3))), [(layers[0][0], Tensor(np.zeros(3)))])
    with pytest.raises(ShapeError):
        T.mlp(Tensor(rng.normal(size=(5, 3))),
              [(*layers[0], Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), 1.0)])


def _mlp_stack_run(one_pass, xs, x_flag, blocks, upstream, grad):
    """Output bytes and every leaf gradient of the weighted outputs of
    ``T.mlp`` over the (B, rows, d) stack ``xs``: from one call over the
    stack (``one_pass``), or from one call and one backward per batch, so
    that a layer tensor adds the batches' gradients up in batch order. With
    ``grad`` off the forward runs under no_grad."""
    layers, leaves = [], []
    for arrays, flags, scale in blocks:
        tensors = _leaves(arrays, flags)
        leaves += tensors
        layers.append(tuple(tensors) if scale is None else (*tensors, scale))
    inputs = [Tensor(xs, requires_grad=x_flag)] if one_pass else [
        Tensor(x, requires_grad=x_flag) for x in xs]
    with T.no_grad() if not grad else contextlib.nullcontext():
        outs = [T.mlp(x, layers) for x in inputs]
    assert grad or all(o._grad_fn is None for o in outs)
    if grad and upstream.shape[1]:
        ups = [upstream] if one_pass else upstream
        for out, up in zip(outs, ups):
            T.mul(out, Tensor(up)).sum().backward()
    x_grads = [t.grad for t in inputs]
    if one_pass:
        x_grads = [None] * len(xs) if x_grads[0] is None else list(x_grads[0])
    return ([np.stack([o.data for o in outs]).reshape(upstream.shape).tobytes()]
            + _grad_bytes(leaves) + [None if g is None else g.tobytes() for g in x_grads])


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dims=st.lists(st.integers(1, 20), min_size=2, max_size=4), batches=st.integers(1, 4),
       rows=st.integers(0, 70), trains=st.lists(st.booleans(), min_size=3, max_size=3),
       rank=st.integers(0, 3), x_flag=st.booleans(), grad=st.booleans(),
       seed=st.integers(0, 2**16))
def test_mlp_over_batches_is_bitwise_one_mlp_per_batch(dims, batches, rows, trains, rank, x_flag,
                                                        grad, seed):
    # rank 0 is a plain extractor whose blocks train or not per ``trains``,
    # rank R >= 1 LoRA at rank R on a frozen base; widths up to 20 include
    # some for which OpenBLAS rounds a row of a taller product differently
    rng = np.random.default_rng(seed)
    blocks = _random_blocks(rng, dims, trains[:len(dims) - 1], rank)
    xs = rng.normal(size=(batches, rows, dims[0]))
    upstream = rng.normal(size=(batches, rows, dims[-1]))
    one_pass = _mlp_stack_run(True, xs, x_flag, blocks, upstream, grad)
    assert one_pass == _mlp_stack_run(False, xs, x_flag, blocks, upstream, grad)


def test_mlp_over_batches_checks_them():
    rng = np.random.default_rng(5)
    layers = [(Tensor(rng.normal(size=(4, 3)), requires_grad=True), Tensor(np.zeros(4)))]
    out = T.mlp(rng.normal(size=(2, 5, 3)), layers)
    assert out.shape == (2, 5, 4) and len(out._parents) == 3
    with pytest.raises(ShapeError):
        T.mlp(np.zeros((0, 5, 3)), layers)
    with pytest.raises(ShapeError):
        T.mlp(np.zeros((2, 5, 4)), layers)
    with pytest.raises(ShapeError):
        T.mlp(np.zeros(3), layers)
    with pytest.raises(ShapeError):
        T.mlp(np.zeros((1, 2, 5, 3)), layers)


def _head_run(build, form, training, head_flags, x_flag, seed=0):
    """Value and every leaf gradient of a head stack's weighted logits for
    the input ``form``: "shared" (n x f), "stacked" (H x n x f) or "list"
    (H tensors, one of them feeding two heads)."""
    rng = np.random.default_rng(seed)
    h, n, f = 4, 6, 5
    params = _leaves([rng.normal(size=(h, f, f)), rng.normal(size=(h, f)),
                      rng.normal(size=(h, 2, f)), rng.normal(size=(h, 2))], [head_flags] * 4)
    if form == "shared":
        inputs = _leaves([rng.normal(size=(n, f))], [x_flag])
        x = inputs[0]
    elif form == "stacked":
        inputs = _leaves([rng.normal(size=(h, n, f))], [x_flag])
        x = inputs[0]
    else:
        inputs = _leaves([rng.normal(size=(n, f)) for _ in range(3)], [x_flag] * 3)
        x = [inputs[0], inputs[1], inputs[0], inputs[2]]
    upstream = Tensor(rng.normal(size=(h, n, 2)))
    out = build(x, *params, 0.3, training, np.random.default_rng(seed + 1))
    T.mul(out, upstream).sum().backward()
    return [out.data.tobytes()] + _grad_bytes(inputs + params)


@pytest.mark.parametrize("form", ["shared", "stacked", "list"])
@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("head_flags,x_flag", [
    (True, False),  # frozen features, as step 2
    (True, True),  # step 1
    (False, True),  # frozen heads, as step 3
])
def test_head_stack_is_bitwise_the_unfused_graph(form, training, head_flags, x_flag):
    fused = _head_run(T.head_stack, form, training, head_flags, x_flag)
    assert fused == _head_run(_unfused_head, form, training, head_flags, x_flag)
    n_inputs = 1 if form != "list" else 3
    assert [g is not None for g in fused[1:]] == [x_flag] * n_inputs + [head_flags] * 4


def test_head_stack_draws_dropout_like_the_unfused_graph_and_checks_it():
    rng = np.random.default_rng(4)
    params = [Tensor(rng.normal(size=s)) for s in ((3, 5, 5), (3, 5), (3, 2, 5), (3, 2))]
    z = Tensor(rng.normal(size=(7, 5)))
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    T.head_stack(z, *params, 0.3, True, a)
    _unfused_head(z, *params, 0.3, True, b)
    assert a.random() == b.random()
    with pytest.raises(ConfigError):
        T.head_stack(z, *params, 1.0, False)
    with pytest.raises(ConfigError):
        T.head_stack(z, *params, 0.3, True)
    with pytest.raises(ShapeError):
        T.head_stack(z, *params[:2], Tensor(np.zeros((3, 2, 4))), params[3], 0.3, False)
    with pytest.raises(ShapeError):
        T.head_stack([z, z], *params, 0.3, False)


def _model_step(fused, arrays, ws, heads):
    """An m3sda step 1: three source batches and a target batch through one
    extractor, the sources into their head pairs, CE + 0.5 * MD2."""
    layers = [tuple(Tensor(a, requires_grad=True) for a in block) for block in ws]
    params = [Tensor(a, requires_grad=True) for a in heads]
    extract = T.mlp if fused else _unfused_mlp
    head = T.head_stack if fused else _unfused_head
    zs = [extract(Tensor(x), layers) for x in arrays[:-1]]
    z_t = extract(Tensor(arrays[-1]), layers)
    logits = head([z for z in zs for _ in range(2)], *params, 0.3, True,
                  np.random.default_rng(5))
    labels = np.stack([(x[:, 0] > 0).astype(np.int64) for x in arrays[:-1] for _ in range(2)])
    loss = T.add(T.softmax_cross_entropy(logits, labels),
                 T.mul(T.moment_distance(zs, z_t), 0.5))
    loss.backward()
    return [loss.data.tobytes()] + _grad_bytes([p for layer in layers for p in layer] + params)


def test_fused_model_step_is_bitwise_the_unfused_graph():
    # four extractor nodes and one head node feed the shared weights, so
    # the order in which backward adds up their gradients shows
    rng = np.random.default_rng(6)
    arrays = [rng.normal(size=(8, 5)) * s for s in (1.0, 3.0, 0.2, 2.0)]
    ws = [(rng.normal(size=(7, 5)), rng.normal(size=7)),
          (rng.normal(size=(4, 7)), rng.normal(size=4))]
    heads = [rng.normal(size=s) for s in ((6, 4, 4), (6, 4), (6, 2, 4), (6, 2))]
    assert _model_step(True, arrays, ws, heads) == _model_step(False, arrays, ws, heads)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(input_dim=st.integers(1, 6), hidden=st.lists(st.integers(1, 6), max_size=3),
       feature_dim=st.integers(1, 6), unfreeze=st.integers(0, 4), rank=st.integers(0, 3),
       pairs=st.integers(0, 2), training=st.booleans(), x_flag=st.booleans(),
       rows=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_model_forward_is_bitwise_the_unfused_graph(input_dim, hidden, feature_dim, unfreeze,
                                                     rank, pairs, training, x_flag, rows, seed):
    # rank 0 stands for a plain extractor, rank R >= 1 for LoRA at rank R
    config = ModelConfig(input_dim=input_dim, hidden_dims=tuple(hidden),
                         feature_dim=feature_dim,
                         unfreeze=0 if rank else min(unfreeze, len(hidden) + 1),
                         adaptation="lora" if rank else "none", lora_rank=max(rank, 1))
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(rows, input_dim))
    dims = (input_dim, *hidden, feature_dim)
    ups = [rng.normal(size=(d_out, rank)) for d_out in dims[1:]] if rank else []
    upstream = Tensor(rng.normal(size=(max(1, 2 * pairs), rows, 2)))
    results = []
    for fused in (True, False):
        bundle = build_model(config, pairs, seed)
        for block, up in zip(bundle.extractor.blocks, ups):
            block[3].data[...] = up  # a trained adapter, not the zero-init identity
        x = Tensor(x0, requires_grad=x_flag)
        head = bundle.head
        head_args = (head.weight1, head.bias1, head.weight2, head.bias2, head.dropout_p,
                     training, np.random.default_rng(seed))
        if fused:
            out = bundle.forward(x, training, head_args[-1])
        else:
            out = _unfused_head(_unfused_mlp(x, bundle.extractor.blocks), *head_args)
        T.mul(out, upstream).sum().backward()
        results.append([out.data.tobytes()]
                       + _grad_bytes([x] + [p for _, p in bundle.parameters()]))
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# fused moment distance


def _unfused_moment_distance(z_sources, z_t):
    """MD2 spelled out node by node, as the losses built it before the fused op."""
    n = len(z_sources)
    total = None
    for k in (1, 2):
        moments = [T.reduce_mean(T.pow_k(z, k), axis=0) for z in z_sources]
        target_moment = T.reduce_mean(T.pow_k(z_t, k), axis=0)
        st = None
        for m in moments:
            term = T.l2_norm(T.sub(m, target_moment))
            st = term if st is None else T.add(st, term)
        part = st if n == 1 else T.mul(st, 1.0 / n)
        if n >= 2:
            pw = None
            for i in range(n - 1):
                for j in range(i + 1, n):
                    term = T.l2_norm(T.sub(moments[i], moments[j]))
                    pw = term if pw is None else T.add(pw, term)
            part = T.add(part, T.mul(pw, 1.0 / math.comb(n, 2)))
        total = part if total is None else T.add(total, part)
    return total


def _md2_loss_and_grads(md2, arrays, lam=0.5):
    """Loss and leaf-gradient bytes of lam * md2(sources, target) for leaf batches."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss = T.mul(md2(leaves[:-1], leaves[-1]), lam)
    loss.backward()
    return [loss.data.tobytes()] + [t.grad.tobytes() for t in leaves]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", range(10))
def test_moment_distance_is_bitwise_the_unfused_graph(n, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 20))
    arrays = [rng.normal(size=(int(rng.integers(1, 30)), d)) * rng.uniform(0.1, 3.0)
              for _ in range(n + 1)]
    fused = _md2_loss_and_grads(T.moment_distance, arrays)
    assert fused == _md2_loss_and_grads(_unfused_moment_distance, arrays)


def _extractor_step(md2, xs, x_t, w0, b0, heads0):
    """An m3sda-like step: every batch goes through one shared extractor,
    the sources also feed a head stack, and the loss is CE + 0.5 * MD2."""
    w, b = Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)
    heads = Tensor(heads0, requires_grad=True)
    zs = [T.relu(T.linear(Tensor(x), w, b)) for x in xs]
    z_t = T.relu(T.linear(Tensor(x_t), w, b))
    logits = T.linear_stack(zs, heads, Tensor(np.zeros(heads0.shape[:2])))
    labels = np.stack([(x[:, 0] > 0).astype(np.int64) for x in xs])
    loss = T.add(T.softmax_cross_entropy(logits, labels), T.mul(md2(zs, z_t), 0.5))
    loss.backward()
    return [a.tobytes() for a in (loss.data, w.grad, b.grad, heads.grad)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_distance_through_a_shared_extractor_is_bitwise_the_unfused_graph(n):
    rng = np.random.default_rng(40 + n)
    xs = [rng.normal(size=(8, 5)) for _ in range(n)]
    args = (xs, rng.normal(size=(8, 5)), rng.normal(size=(4, 5)), rng.normal(size=4),
            rng.normal(size=(n, 2, 4)))
    assert (_extractor_step(T.moment_distance, *args)
            == _extractor_step(_unfused_moment_distance, *args))


def test_moment_distance_of_identical_batches_has_zero_gradients():
    z = np.random.default_rng(11).normal(size=(5, 4))
    for n in (1, 3):
        fused = _md2_loss_and_grads(T.moment_distance, [z] * (n + 1))
        assert fused == _md2_loss_and_grads(_unfused_moment_distance, [z] * (n + 1))
        assert np.frombuffer(fused[0]) == 0.0
        assert all(not np.frombuffer(g).any() for g in fused[1:])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("equal", ["two_sources", "source_and_target"])
def test_moment_distance_with_a_zero_norm_term_is_bitwise_the_unfused_graph(n, equal):
    # random batches never give a term of norm 0, so its zero subgradient
    # needs batches made equal on purpose; the other terms stay nonzero
    rng = np.random.default_rng(30 + n)
    arrays = [rng.normal(size=(6, 4)) for _ in range(n + 1)]
    if equal == "two_sources":
        arrays[1] = arrays[0].copy()  # the pairwise term (0, 1)
    else:
        arrays[n - 1] = arrays[n].copy()  # the last source's source-target term
    fused = _md2_loss_and_grads(T.moment_distance, arrays)
    assert fused == _md2_loss_and_grads(_unfused_moment_distance, arrays)
    assert np.frombuffer(fused[0]) > 0.0 and all(np.frombuffer(g).any() for g in fused[1:])


def test_moment_distance_records_nothing_under_no_grad():
    z = Tensor(np.ones((3, 2)), requires_grad=True)
    with T.no_grad():
        out = T.moment_distance([z, z], z)
    assert out._grad_fn is None and out._parents == () and not out.requires_grad


def test_moment_distance_gives_no_gradient_to_constant_batches():
    rng = np.random.default_rng(12)
    z0, z1 = Tensor(rng.normal(size=(4, 3)), requires_grad=True), Tensor(rng.normal(size=(5, 3)))
    z_t = Tensor(rng.normal(size=(6, 3)))
    out = T.moment_distance([z0, z1], z_t)
    assert out._op == "moment_distance"
    assert [id(p) for p in out._parents] == [id(z_t), id(z0), id(z1)] * 2
    grads = out._grad_fn(np.ones(()))
    assert [g is None for g in grads] == [True, False, True] * 2
    out.backward()
    assert z0.grad is not None and z1.grad is None and z_t.grad is None
    single = T.moment_distance([z1], Tensor(z_t.data, requires_grad=True))
    assert [g is None for g in single._grad_fn(np.ones(()))] == [True, False] * 2


def test_moment_distance_input_errors():
    with pytest.raises(ConfigError):
        T.moment_distance([], Tensor(np.zeros((3, 4))))
    with pytest.raises(ShapeError):
        T.moment_distance([Tensor(np.zeros((3, 4)))], Tensor(np.zeros((3, 5))))
    with pytest.raises(ShapeError):
        T.moment_distance([Tensor(np.zeros(4))], Tensor(np.zeros((3, 4))))
    with pytest.raises(DegenerateInputError):
        T.moment_distance([Tensor(np.zeros((0, 4)))], Tensor(np.zeros((3, 4))))


# ----------------------------------------------------------------------
# one node per classify step


def _classify_step(fused, xs, labels, x_t, lam, blocks, heads, p, seed):
    """Loss bytes, CE and MD2 values, every gradient and the next dropout
    draw of a classify step over the source batches ``xs``, from
    ``T.classify_loss`` or from the per-op graph it replaces: one ``mlp``
    node per batch, and head h of H reading source batch h * N // H."""
    layers, leaves = [], []
    for arrays, flags, scale in blocks:
        tensors = _leaves(arrays, flags)
        leaves += tensors
        layers.append(tuple(tensors) if scale is None else (*tensors, scale))
    head = _leaves(heads, [True] * 4)
    rng = np.random.default_rng(seed)
    n, h = len(xs), len(heads[0])
    if fused:
        rows, target = (xs, None) if x_t is None else ([x_t, *xs], lam)
        loss, ce, md2 = T.classify_loss(rows, labels, layers, *head, p, rng, target)
        assert loss._op == "classify_loss" and len(loss._parents) == len(leaves) + 4
    else:
        z_s = [T.mlp(Tensor(x), layers) for x in xs]
        read = [z_s[i * n // h] for i in range(h)]
        logits = T.head_stack(read[0] if h == 1 else read, *head, p, True, rng)
        loss = T.softmax_cross_entropy(logits, labels)
        ce, md2 = loss.item(), None
        if x_t is not None:
            distance = T.moment_distance(z_s, T.mlp(Tensor(x_t), layers))
            md2 = distance.item()
            loss = T.add(loss, T.mul(distance, lam))
    loss.backward()
    return [loss.data.tobytes(), ce, md2, rng.random()] + _grad_bytes(leaves + head)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dims=st.lists(st.integers(1, 9), min_size=3, max_size=4), rows=st.integers(1, 70),
       n=st.integers(1, 3), pairs=st.booleans(),
       target=st.sampled_from(["none", "target", "identical"]),
       unfreeze=st.integers(0, 3), rank=st.integers(0, 3),
       lam=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), p=st.sampled_from([0.0, 0.3]),
       labels=st.sampled_from(["mixed", "zeros", "ones"]), seed=st.integers(0, 2**16))
def test_classify_loss_is_bitwise_the_per_op_graph(dims, rows, n, pairs, target, unfreeze, rank,
                                                   lam, p, labels, seed):
    # N source batches read by one head or by 2N; 1 or 2 hidden layers;
    # rank 0 is a plain extractor with its trailing ``unfreeze`` blocks
    # trainable, rank R >= 1 LoRA at rank R on a frozen base; "identical"
    # makes the target batch source batch 0, so its MD2 norms are 0
    rng = np.random.default_rng(seed)
    n_blocks = len(dims) - 1
    blocks = _random_blocks(rng, dims, [i >= n_blocks - unfreeze for i in range(n_blocks)],
                            rank)
    f, h = dims[-1], 2 * n if pairs else 1
    heads = [rng.normal(size=s) for s in ((h, f, f), (h, f), (h, 2, f), (h, 2))]
    xs = rng.normal(size=(n, rows, dims[0]))
    y = {"mixed": rng.integers(0, 2, (n, rows)), "zeros": np.zeros((n, rows), dtype=np.int64),
         "ones": np.ones((n, rows), dtype=np.int64)}[labels]
    x_t = {"none": None, "target": rng.normal(size=(rows, dims[0])) * 2.0 + 0.5,
           "identical": xs[0].copy()}[target]
    args = (list(xs), y[np.arange(h) * n // h], x_t, lam, blocks, heads, p, seed)
    fused = _classify_step(True, *args)
    assert fused == _classify_step(False, *args)
    assert (fused[2] is None) == (x_t is None)
    if target == "identical" and n == 1:
        assert fused[2] == 0.0


def test_classify_loss_records_nothing_under_no_grad_and_checks_its_inputs():
    rng = np.random.default_rng(8)
    layers = [(Tensor(rng.normal(size=(4, 3)), requires_grad=True), Tensor(np.zeros(4)))]
    head = [Tensor(rng.normal(size=s), requires_grad=True)
            for s in ((1, 4, 4), (1, 4), (1, 2, 4), (1, 2))]
    x, y = rng.normal(size=(5, 3)), np.array([[0, 1, 1, 0, 1]])
    with T.no_grad():
        loss, ce, md2 = T.classify_loss([x, x], y, layers, *head, 0.0, None, 0.5)
    assert loss._grad_fn is None and loss._parents == () and md2 == 0.0
    assert ce == loss.item()
    with pytest.raises(ShapeError):
        T.classify_loss([rng.normal(size=(5, 2))], y, layers, *head, 0.0, None)
    with pytest.raises(ShapeError):
        T.classify_loss([x], y[:, :4], layers, *head, 0.0, None)
    with pytest.raises(ShapeError):
        T.classify_loss([x], y[0], layers, *head, 0.0, None)
    with pytest.raises(ShapeError):
        T.classify_loss([x], y, layers, *head[:2], Tensor(np.zeros((1, 2, 3))), head[3], 0.0,
                        None)
    with pytest.raises(LabelError):
        T.classify_loss([x], y * 2, layers, *head, 0.0, None)
    with pytest.raises(ConfigError):
        T.classify_loss([x], y, layers, *head, 0.3, None)
    with pytest.raises(ShapeError):
        T.classify_loss([x[:4], x], y, layers, *head, 0.0, None, 0.5)
    with pytest.raises(ShapeError):
        T.classify_loss([x[:, :2], x], y, layers, *head, 0.0, None, 0.5)
    with pytest.raises(DegenerateInputError):
        T.classify_loss([x[:0], x[:0]], y[:, :0], layers, *head, 0.0, None, 0.5)
    # no source batch, unequal ones, one that is not (rows, d), and a head
    # count that is neither 1 nor 2N
    with pytest.raises(ShapeError):
        T.classify_loss([], y, layers, *head, 0.0, None)
    with pytest.raises(ShapeError):
        T.classify_loss([x, x, x[:4]], y, layers, *head, 0.0, None, 0.5)
    with pytest.raises(ShapeError):
        T.classify_loss([x[None]], y, layers, *head, 0.0, None)
    pair = [Tensor(np.repeat(t.data, 2, axis=0)) for t in head]
    with pytest.raises(ShapeError):
        T.classify_loss([x, x], np.repeat(y, 2, axis=0), layers, *pair, 0.0, None)


# ----------------------------------------------------------------------
# one node per discrepancy step


def _discrepancy_step(fused, step, xs, labels, x_t, blocks, heads, p, seed):
    """Loss bytes, discrepancy, step 2's CE, every gradient and the next
    dropout draw of m3sda step 2 or 3, from ``T.max_discrepancy_loss`` or
    ``T.min_discrepancy_loss``, or from the per-op graph each replaces."""
    layers, leaves = [], []
    for arrays, flags, scale in blocks:
        tensors = _leaves(arrays, flags)
        leaves += tensors
        layers.append(tuple(tensors) if scale is None else (*tensors, scale))
    # the per-op step 3 turns the heads' requires_grad off; the step node
    # leaves them on and takes none of them as a parent
    head = _leaves(heads, [fused or step == 2] * 4)
    rng = np.random.default_rng(seed)
    ce = None
    if fused and step == 2:
        loss, ce, disc = T.max_discrepancy_loss([x_t, *xs], labels, layers, *head, p, rng)
        assert loss._op == "max_discrepancy_loss" and list(loss._parents) == head
    elif fused:
        loss = T.min_discrepancy_loss(x_t, layers, *head, p, rng)
        disc = loss.item()
        trainable = [t for t in leaves if t.requires_grad]
        assert list(loss._parents) == (leaves if trainable else [])
    elif step == 2:
        with T.no_grad():
            feats = T.mlp(Tensor(np.stack([*xs, x_t])), layers).data
        disc_node = T.pair_discrepancy(T.softmax(T.head_stack(Tensor(feats[-1]), *head, p, True,
                                                              rng)))
        logits = T.head_stack(Tensor(np.repeat(feats[:-1], 2, axis=0)), *head, p, True, rng)
        ce_node = T.softmax_cross_entropy(logits, labels)
        loss = T.sub(ce_node, disc_node)
        ce, disc = ce_node.item(), disc_node.item()
    else:
        loss = T.pair_discrepancy(T.softmax(T.head_stack(T.mlp(Tensor(x_t), layers), *head, p,
                                                         True, rng)))
        disc = loss.item()
    loss.backward()
    return [loss.data.tobytes(), disc, ce, rng.random()] + _grad_bytes(leaves + head)


@pytest.mark.parametrize("step", [2, 3])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dims=st.lists(st.integers(1, 9), min_size=2, max_size=4),
       rows=st.one_of(st.sampled_from([1, 50]), st.integers(1, 70)), n=st.integers(1, 3),
       unfreeze=st.integers(0, 3), rank=st.integers(0, 3), p=st.sampled_from([0.0, 0.3]),
       twins=st.booleans(), seed=st.integers(0, 2**16))
def test_discrepancy_steps_are_bitwise_the_per_op_graph(step, dims, rows, n, unfreeze, rank, p,
                                                        twins, seed):
    # 1 to 3 extractor blocks; rank 0 is a plain extractor with its
    # trailing ``unfreeze`` blocks trainable, rank R >= 1 LoRA at rank R on
    # a frozen base; ``twins`` makes each pair's heads equal, so without
    # dropout the pairs agree exactly and |x| takes its zero subgradient
    rng = np.random.default_rng(seed)
    n_blocks = len(dims) - 1
    blocks = _random_blocks(rng, dims, [i >= n_blocks - unfreeze for i in range(n_blocks)],
                            rank)
    f, h = dims[-1], 2 * n
    heads = [rng.normal(size=s) for s in ((h, f, f), (h, f), (h, 2, f), (h, 2))]
    if twins:
        for a in heads:
            a[1::2] = a[0::2]
    xs = list(rng.normal(size=(n, rows, dims[0])))
    labels = np.repeat(rng.integers(0, 2, (n, rows)), 2, axis=0)
    x_t = rng.normal(size=(rows, dims[0])) * 2.0 + 0.5
    args = (step, xs, labels, x_t, blocks, heads, p, seed)
    fused = _discrepancy_step(True, *args)
    assert fused == _discrepancy_step(False, *args)
    if twins and p == 0.0:
        assert fused[1] == 0.0


def test_discrepancy_steps_record_nothing_under_no_grad_and_check_their_inputs():
    rng = np.random.default_rng(9)
    layers = [(Tensor(rng.normal(size=(4, 3)), requires_grad=True), Tensor(np.zeros(4)))]
    head = [Tensor(rng.normal(size=s), requires_grad=True)
            for s in ((2, 4, 4), (2, 4), (2, 2, 4), (2, 2))]
    x, y = rng.normal(size=(5, 3)), np.array([[0, 1, 1, 0, 1]] * 2)
    with T.no_grad():
        loss, _, disc = T.max_discrepancy_loss([x, x], y, layers, *head, 0.0, None)
        step3 = T.min_discrepancy_loss(x, layers, *head, 0.0, None)
    for node in (loss, step3):
        assert node._grad_fn is None and node._parents == () and not node.requires_grad
    # without dropout both steps compare the pairs on the same features
    assert step3.item() == disc > 0.0
    for bad in ([x[:, :2]], [x[:4]], [x[None]], [], [x, x]):
        with pytest.raises(ShapeError):
            T.max_discrepancy_loss([x, *bad], y, layers, *head, 0.0, None)
    with pytest.raises(ShapeError):
        T.max_discrepancy_loss([x[:, :2], x], y, layers, *head, 0.0, None)
    for labels in (y[:, :4], y[0], y[:1]):
        with pytest.raises(ShapeError):
            T.max_discrepancy_loss([x, x], labels, layers, *head, 0.0, None)
    with pytest.raises(LabelError):
        T.max_discrepancy_loss([x, x], y * 2, layers, *head, 0.0, None)
    narrow = [*head[:2], Tensor(np.zeros((2, 2, 3))), head[3]]
    odd = [Tensor(t.data[:1]) for t in head]
    for step_head in (narrow, odd):
        with pytest.raises(ShapeError):
            T.max_discrepancy_loss([x, x], y, layers, *step_head, 0.0, None)
        with pytest.raises(ShapeError):
            T.min_discrepancy_loss(x, layers, *step_head, 0.0, None)
    for bad in (x[:, :2], x[None], x[0]):
        with pytest.raises(ShapeError):
            T.min_discrepancy_loss(bad, layers, *head, 0.0, None)
    with pytest.raises(ConfigError):
        T.max_discrepancy_loss([x, x], y, layers, *head, 0.3, None)
    with pytest.raises(ConfigError):
        T.min_discrepancy_loss(x, layers, *head, 0.3, None)
    with pytest.raises(DegenerateInputError):
        T.max_discrepancy_loss([x[:0], x[:0]], y[:, :0], layers, *head, 0.0, None)
    with pytest.raises(DegenerateInputError):
        T.min_discrepancy_loss(x[:0], layers, *head, 0.0, None)


# ----------------------------------------------------------------------
# no_grad


def test_no_grad_records_nothing():
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    x = Tensor(np.ones((4, 3)))
    with T.no_grad():
        out = T.relu(T.linear(x, w))
        loss = T.mul(out, 2.0).sum()
    assert out._grad_fn is None and out._parents == () and not out.requires_grad
    assert loss._grad_fn is None
    assert T.linear(x, w)._grad_fn is not None


def test_no_grad_nests_and_restores_on_exception():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        with T.no_grad():
            assert T.mul(w, 2.0)._grad_fn is None
        assert T.mul(w, 2.0)._grad_fn is None
    assert T.mul(w, 2.0)._grad_fn is not None
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("boom")
    assert T.mul(w, 2.0)._grad_fn is not None


# ----------------------------------------------------------------------
# optimizers


def test_sgd_hand_step():
    w = Tensor([0.0], requires_grad=True)
    w.grad = np.array([1.0])
    SGD([w], lr=0.1).step()
    assert w.data.tolist() == [-0.1]


def test_zero_gradient_leaves_params_unchanged():
    for opt_cls in (SGD, Adam):
        w = Tensor([1.5], requires_grad=True)
        w.grad = np.array([0.0])
        opt_cls([w], lr=0.1).step()
        assert w.data.tolist() == [1.5]


def test_adam_first_step_magnitude_is_lr():
    # bias correction makes the first step lr * g / (|g| + eps) for any g
    for g in (0.01, 1.0, 250.0):
        w = Tensor([0.0], requires_grad=True)
        w.grad = np.array([g])
        Adam([w], lr=1e-3).step()
        expected = 1e-3 * g / (abs(g) + 1e-8)
        assert w.data[0] == pytest.approx(-expected, rel=1e-9)


def test_missing_grad_raises():
    w = Tensor([0.0], requires_grad=True)
    with pytest.raises(TrainingStateError):
        SGD([w], lr=0.1).step()


def test_adam_deterministic_given_state():
    def run():
        w = Tensor([1.0, -1.0], requires_grad=True)
        opt = Adam([w], lr=0.01)
        for i in range(5):
            w.grad = np.array([0.5 * (i + 1), -0.25])
            opt.step()
        return w.data.copy()

    assert np.array_equal(run(), run())


# ----------------------------------------------------------------------
# one flat buffer per optimizer group


def _reference_sgd(params, grads, lr):
    for p, g in zip(params, grads):
        p -= lr * g


class _ReferenceAdam:
    """The per-tensor Adam loop the flat-buffer step must reproduce bitwise."""

    def __init__(self, params, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.params, self.lr, self.b1, self.b2, self.eps, self.t = params, lr, b1, b2, eps, 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        b1, b2 = self.b1, self.b2
        for p, m, v, g in zip(self.params, self.m, self.v, grads):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _random_group(rng):
    shapes = [tuple(rng.integers(1, 6, size=rng.integers(0, 3))) for _ in range(rng.integers(1, 7))]
    return [Tensor(rng.normal(size=s) * 10.0 ** rng.integers(-3, 3), requires_grad=True)
            for s in shapes]


@pytest.mark.parametrize("opt_name", ["sgd", "adam"])
def test_flat_buffer_step_is_bitwise_the_per_tensor_loop(opt_name):
    for trial in range(20):
        rng = np.random.default_rng(trial)
        params = _random_group(rng)
        reference = [p.data.copy() for p in params]
        lr = float(10.0 ** rng.uniform(-4, 0))
        opt = SGD(params, lr) if opt_name == "sgd" else Adam(params, lr)
        ref_adam = _ReferenceAdam(reference, lr)
        for _ in range(30):
            grads = [np.asarray(rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 4))
                     for p in params]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            if opt_name == "sgd":
                _reference_sgd(reference, grads, lr)
            else:
                ref_adam.step(grads)
            for p, r in zip(params, reference):
                assert p.data.shape == r.shape
                assert p.data.tobytes() == r.tobytes()


def test_every_parameter_is_a_view_into_the_group_buffer():
    rng = np.random.default_rng(0)
    params = _random_group(rng)
    values = [p.data.copy() for p in params]
    for opt_cls in (SGD, Adam):
        opt = opt_cls(params, lr=0.1)
        for p, v in zip(params, values):
            assert np.shares_memory(p.data, opt._buf)
            assert p.data.tobytes() == v.tobytes()
    assert sum(p.size for p in params) == opt._buf.size


def test_second_optimizer_continues_from_current_values():
    w = Tensor([1.0, 2.0], requires_grad=True)
    first = Adam([w], lr=0.1)
    w.grad = np.array([1.0, -1.0])
    first.step()
    moved = w.data.copy()
    second = SGD([w], lr=0.5)
    assert w.data.tobytes() == moved.tobytes()
    second.step()
    assert w.data.tolist() == (moved - 0.5 * np.array([1.0, -1.0])).tolist()
    assert np.shares_memory(w.data, second._buf)
    assert not np.shares_memory(w.data, first._buf)


def test_empty_group_steps():
    for opt_cls in (SGD, Adam):
        opt = opt_cls([], lr=0.1)
        opt.zero_grad()
        opt.step()
        assert opt._buf.size == 0


def test_missing_grad_raises_before_any_parameter_moves():
    for opt_cls in (SGD, Adam):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        a.grad = np.array([1.0])
        opt = opt_cls([a, b], lr=0.1)
        with pytest.raises(TrainingStateError):
            opt.step()
        assert (a.data.tolist(), b.data.tolist()) == ([1.0], [2.0])


def test_step_that_leaves_a_parameter_not_finite_raises():
    for opt_cls in (SGD, Adam):
        w = Tensor([1e308, 0.0], requires_grad=True)
        w.grad = np.array([-1.0, 1.0])
        with np.errstate(over="ignore"), pytest.raises(TrainingStateError, match="not finite"):
            opt_cls([w], lr=1e308).step()


# ----------------------------------------------------------------------
# cross entropy against the take/put formula


def _reference_cross_entropy(z, y, class_weights):
    b = z.shape[-2]
    y = y.astype(np.int64)
    if class_weights is None:
        w = np.ones(y.shape)
    else:
        w = np.where(y == 1, float(class_weights[1]), float(class_weights[0]))
    picked = y[..., None]
    m = z.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(z - m).sum(axis=-1))
    nll = lse - np.take_along_axis(z, picked, axis=-1)[..., 0]
    per_head = np.atleast_1d((w * nll).sum(axis=-1) / b)
    loss = per_head[0]
    for value in per_head[1:]:
        loss = loss + value
    p = np.exp(z - m)
    p /= p.sum(axis=-1, keepdims=True)
    np.put_along_axis(p, picked, np.take_along_axis(p, picked, axis=-1) - 1.0, axis=-1)
    return np.asarray(loss), p * (w / b)[..., None]


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("label_dtype", [np.int64, np.float64])
@pytest.mark.parametrize("class_weights", [None, (0.3, 2.5)])
def test_cross_entropy_is_bitwise_the_take_put_formula(stacked, label_dtype, class_weights):
    rng = np.random.default_rng(11)
    for _ in range(25):
        shape = (int(rng.integers(1, 5)),) * stacked + (int(rng.integers(1, 40)), 2)
        z = rng.normal(size=shape) * 10.0 ** rng.integers(-2, 3)
        y = rng.integers(0, 2, size=shape[:-1]).astype(label_dtype)
        logits = Tensor(z.copy(), requires_grad=True)
        loss = T.softmax_cross_entropy(logits, y, class_weights)
        loss.backward()
        ref_loss, ref_grad = _reference_cross_entropy(z, y, class_weights)
        assert loss.data.tobytes() == ref_loss.tobytes()
        assert logits.grad.tobytes() == ref_grad.tobytes()


# ----------------------------------------------------------------------
# the step kernels against the numpy expressions their ufunc calls replace


def _md2_reference(data, index, sizes, n):
    """MD2's term differences and norms, and the batches' spread
    gradient for an upstream of 1, written with ``np.stack``, ``.mean``,
    ``.sum``, ``np.zeros_like`` and ``np.repeat``."""
    first, second, order = T._md2_terms(n)
    powers = np.stack([data, data ** 2.0])
    moments = (powers.mean(axis=2) if data.ndim == 3
               else np.stack([powers[:, ix].mean(axis=1) for ix in index], axis=1))
    diffs = moments[:, first] - moments[:, second]
    norms = np.sqrt((diffs ** 2).sum(axis=2))
    scales = np.empty(len(first))
    scales[:n] = 1.0 if n == 1 else 1.0 * (1.0 / n)
    scales[n:] = 1.0 * (1.0 / math.comb(n, 2) if n >= 2 else 0.0)
    term_grads = np.divide(scales[:, None] * diffs, norms[..., None],
                           out=np.zeros_like(diffs), where=norms[..., None] != 0.0)
    signed = np.concatenate([term_grads, -term_grads], axis=1)[:, order]
    moment_grads = signed[:, :, 0]
    for s in range(1, n):
        moment_grads = moment_grads + signed[:, :, s]
    row_grads = moment_grads / np.array(sizes)[:, None] * np.array([1.0, 2.0])[:, None, None]
    spread = (np.repeat(row_grads[:, :, None], sizes[0], axis=2) if data.ndim == 3
              else np.repeat(row_grads, sizes, axis=1))
    spread[1] *= data
    return diffs, norms, spread


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), d=st.integers(1, 40), rows=st.lists(st.integers(1, 70), min_size=5,
                                                                 max_size=5),
       equal=st.booleans(), seed=st.integers(0, 2**16))
def test_md2_kernels_are_bitwise_the_numpy_helper_formulas(n, d, rows, equal, seed):
    rng = np.random.default_rng(seed)
    sizes = [rows[0]] * (n + 1) if equal else rows[:n + 1]
    data, index = T._lay_out([rng.normal(size=(b, d)) * 3.0 + 1.0 for b in sizes])
    total, saved = T._md2_forward(data, index, sizes, n)
    diffs, norms, spread = _md2_reference(data, index, sizes, n)
    assert saved[6].tobytes() == diffs.tobytes() and saved[7].tobytes() == norms.tobytes()
    assert T._md2_backward(np.array(1.0), saved).tobytes() == spread.tobytes()


@settings(max_examples=60, deadline=None)
@given(pairs=st.integers(1, 4), b=st.integers(1, 70), c=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_pair_means_and_bias_sums_are_bitwise_the_numpy_helper_formulas(pairs, b, c, seed):
    rng = np.random.default_rng(seed)
    p = rng.random((2 * pairs, b, c))
    total, saved = T._pair_forward(p)
    diff = p[0::2] - p[1::2]
    per_pair = (np.maximum(diff, 0) + np.maximum(diff * -1.0, 0)).reshape(pairs, -1).mean(axis=1)
    assert total.tobytes() == T._sum_in_order(per_pair).tobytes()
    g = np.asarray(rng.normal())
    scaled = np.broadcast_to(g / diff[0].size, diff.shape)
    gdiff = scaled * (diff > 0) + scaled * (diff * -1.0 > 0) * -1.0
    assert T._pair_backward(g, saved).tobytes() == \
        np.stack([gdiff, -gdiff], 1).reshape(p.shape).tobytes()
    # a bias gradient is the row sum, over the axis before the last
    upstream = rng.normal(size=p.shape)
    assert T._stack_param_grads(upstream, p, False, True)[1].tobytes() == \
        upstream.sum(axis=-2).tobytes()


@pytest.mark.parametrize("size", [1, 7, 1000])
def test_adam_update_is_bitwise_the_temporaries_formula(size):
    rng = np.random.default_rng(size)
    for _ in range(20):
        w = Tensor(rng.normal(size=size), requires_grad=True)
        opt = Adam([w], lr=float(rng.uniform(1e-4, 1e-1)))
        opt.t = int(rng.integers(0, 50))
        opt._m[...] = rng.normal(size=size)
        opt._v[...] = rng.random(size)
        g = rng.normal(size=size) * 10.0 ** rng.integers(-3, 3)
        w.grad = g
        b1, b2, t = opt.beta1, opt.beta2, opt.t + 1
        m = opt._m * b1 + (1 - b1) * g
        v = opt._v * b2 + (1 - b2) * g * g
        buf = w.data - opt.lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + opt.eps)
        opt.step()
        assert (w.data.tobytes(), opt._m.tobytes(), opt._v.tobytes(), opt.t) == \
            (buf.tobytes(), m.tobytes(), v.tobytes(), t)


def _walked_backward(loss):
    """The leaves' gradients of ``loss`` by the general walk: ``loss`` under
    a ``mul`` by 1.0, an interior node whose gradient is its upstream."""
    T.mul(loss, 1.0).backward()


@pytest.mark.parametrize("build", ["moment_distance", "add", "classify_loss"])
def test_one_node_backward_is_bitwise_the_general_walk(build):
    runs = []
    for backward in (Tensor.backward, _walked_backward):
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        z.grad = np.full((6, 3), 0.1)  # earlier gradients add up with the new ones
        leaves = [z]
        if build == "moment_distance":
            loss = T.moment_distance([z, z], z)  # one leaf, six parents
        elif build == "add":
            a = Tensor(rng.normal(), requires_grad=True)
            a.grad = np.array(0.25)
            leaves, loss = [a], T.add(a, a)
        else:
            layer = (Tensor(rng.normal(size=(3, 3)), requires_grad=True),
                     Tensor(rng.normal(size=3), requires_grad=True))
            head = [Tensor(rng.normal(size=s), requires_grad=True)
                    for s in ((2, 3, 3), (2, 3), (2, 2, 3), (2, 2))]
            leaves = [*layer, *head]
            loss = T.classify_loss([z.data, z.data * 0.5], np.ones((2, 6), int), [layer],
                                   *head, 0.0, None, 0.5)[0]
        assert backward is _walked_backward or all(p._grad_fn is None for p in loss._parents)
        backward(loss)
        runs.append([t.grad.tobytes() for t in leaves])
    assert runs[0] == runs[1]
