import math

import numpy as np
import pytest

from rumexda import tensor as T
from rumexda.errors import (
    ConfigError,
    DegenerateInputError,
    LabelError,
    MathDomainError,
    ShapeError,
    TrainingStateError,
)
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
