"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: float64 numpy storage, eager graph
construction, and a backward pass that replays the recorded operations in
reverse topological order. Broadcasting is restricted to scalar-vs-tensor;
every other elementwise operation requires equal shapes. That is all the
losses and networks in this package need.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    LabelError,
    MathDomainError,
    ShapeError,
)


class Tensor:
    """A dense n-D array that can participate in gradient tracking.

    ``grad`` is populated (and accumulated across repeated ``backward``
    calls) only on leaf tensors created with ``requires_grad=True``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._grad_fn = None
        self._op = ""

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    # ------------------------------------------------------------------
    def backward(self) -> None:
        """Accumulate gradients of this scalar into every requires_grad leaf.

        Repeated calls without ``zero_grad`` add up, and shared
        subexpressions contribute once per path, which together give the
        usual multivariate chain rule on a DAG.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._grad_fn is not None:
                for parent, pg in zip(node._parents, node._grad_fn(g)):
                    if pg is None:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg
            elif node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g

    # ------------------------------------------------------------------
    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, k):
        return pow_k(self, k)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)


def _result(data: np.ndarray, parents: Sequence[Tensor], grad_fn, op: str) -> Tensor:
    out = Tensor(data, dtype=data.dtype)
    if any(p.requires_grad or p._grad_fn is not None for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
        out._op = op
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    # equal shapes, or one side is a single-element (scalar) tensor
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are neither equal nor scalar")


def _unscalar(grad: np.ndarray, operand: Tensor) -> np.ndarray:
    # collapse a broadcast gradient back onto a scalar operand
    if operand.shape == grad.shape:
        return grad
    return np.asarray(grad.sum()).reshape(operand.shape)


# ----------------------------------------------------------------------
# elementwise operations


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "add")
    data = a.data + b.data

    def grad_fn(g):
        return _unscalar(g, a), _unscalar(g, b)

    return _result(data, (a, b), grad_fn, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "sub")
    data = a.data - b.data

    def grad_fn(g):
        return _unscalar(g, a), _unscalar(-g, b)

    return _result(data, (a, b), grad_fn, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "mul")
    data = a.data * b.data

    def grad_fn(g):
        return _unscalar(g * b.data, a), _unscalar(g * a.data, b)

    return _result(data, (a, b), grad_fn, "mul")


def pow_k(t: Tensor, k) -> Tensor:
    """Elementwise k-th power; with k in {1, 2} this realizes the raw
    feature moments used by the moment-distance losses."""
    t = _as_tensor(t)
    k = float(k)
    if not k.is_integer():
        if np.any(t.data < 0):
            raise MathDomainError(f"pow_k with non-integer exponent {k} on negative values")
    elif k < 0 and np.any(t.data == 0):
        raise MathDomainError(f"pow_k with negative exponent {k} on zero values")
    data = t.data ** k

    def grad_fn(g):
        if k == 0:
            return (np.zeros_like(t.data),)
        return (g * k * t.data ** (k - 1),)

    return _result(data, (t,), grad_fn, "pow_k")


def relu(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.maximum(t.data, 0)

    def grad_fn(g):
        # subgradient at exactly 0 is 0
        return (g * (t.data > 0),)

    return _result(data, (t,), grad_fn, "relu")


def exp(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.exp(t.data)

    def grad_fn(g):
        return (g * data,)

    return _result(data, (t,), grad_fn, "exp")


def log(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    if np.any(t.data <= 0):
        raise MathDomainError("log requires strictly positive inputs")
    data = np.log(t.data)

    def grad_fn(g):
        return (g / t.data,)

    return _result(data, (t,), grad_fn, "log")


# ----------------------------------------------------------------------
# reductions


def _check_reduction(t: Tensor, axis) -> None:
    if t.size == 0:
        raise DegenerateInputError("cannot reduce an empty tensor")
    if axis is not None:
        if not -t.ndim <= axis < t.ndim:
            raise ShapeError(f"axis {axis} out of range for rank {t.ndim}")
        if t.shape[axis] == 0:
            raise DegenerateInputError(f"cannot reduce over empty axis {axis}")


def reduce_sum(t: Tensor, axis=None) -> Tensor:
    t = _as_tensor(t)
    _check_reduction(t, axis)
    data = t.data.sum(axis=axis)

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, t.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), t.shape),)

    return _result(np.asarray(data), (t,), grad_fn, "sum")


def reduce_mean(t: Tensor, axis=None) -> Tensor:
    t = _as_tensor(t)
    _check_reduction(t, axis)
    count = t.size if axis is None else t.shape[axis]
    data = t.data.mean(axis=axis)

    def grad_fn(g):
        scaled = g / count
        if axis is None:
            return (np.broadcast_to(scaled, t.shape),)
        return (np.broadcast_to(np.expand_dims(scaled, axis), t.shape),)

    return _result(np.asarray(data), (t,), grad_fn, "mean")


def l2_norm(t: Tensor) -> Tensor:
    """Euclidean norm over all elements; the subgradient at the origin is
    the zero vector so moment matching stays stable when the compared
    distributions coincide."""
    t = _as_tensor(t)
    norm = float(np.sqrt((t.data ** 2).sum()))
    data = np.asarray(norm, dtype=t.dtype)

    def grad_fn(g):
        if norm == 0.0:
            return (np.zeros_like(t.data),)
        return (g * t.data / norm,)

    return _result(data, (t,), grad_fn, "l2_norm")


# ----------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _result(data, (a, b), grad_fn, "matmul")


def transpose(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    if t.ndim != 2:
        raise ShapeError(f"transpose expects a rank-2 tensor, got {t.shape}")
    data = np.ascontiguousarray(t.data.T)

    def grad_fn(g):
        return (np.ascontiguousarray(g.T),)

    return _result(data, (t,), grad_fn, "transpose")


def add_bias(t: Tensor, bias: Tensor) -> Tensor:
    """Add a length-d bias vector to every row of a b x d tensor."""
    t, bias = _as_tensor(t), _as_tensor(bias)
    if t.ndim != 2 or bias.ndim != 1 or t.shape[1] != bias.shape[0]:
        raise ShapeError(f"add_bias: cannot add bias {bias.shape} to rows of {t.shape}")
    data = t.data + bias.data[None, :]

    def grad_fn(g):
        return g, g.sum(axis=0)

    return _result(data, (t, bias), grad_fn, "add_bias")


# ----------------------------------------------------------------------
# classification head pieces


def softmax(t: Tensor) -> Tensor:
    """Row softmax of a b x c tensor (computed with the max-shift trick)."""
    t = _as_tensor(t)
    if t.ndim != 2:
        raise ShapeError(f"softmax expects a rank-2 tensor, got {t.shape}")
    shifted = t.data - t.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def grad_fn(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return _result(p, (t,), grad_fn, "softmax")


def softmax_cross_entropy(logits: Tensor, labels, class_weights=None) -> Tensor:
    """Mean negative log-likelihood of binary logits against 0/1 labels.

    Uses the log-sum-exp form for stability. When ``class_weights`` is a
    (w0, w1) pair, each sample's term is rescaled by the weight of its
    label; the sum is still divided by the batch size.
    """
    logits = _as_tensor(logits)
    if logits.ndim != 2 or logits.shape[1] != 2:
        raise ShapeError(f"expected b x 2 logits, got {logits.shape}")
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != logits.shape[0]:
        raise ShapeError(f"labels of shape {y.shape} do not match logits {logits.shape}")
    b = logits.shape[0]
    if b == 0:
        raise DegenerateInputError("cross entropy over an empty batch")
    if not np.issubdtype(y.dtype, np.integer):
        yi = y.astype(np.int64)
        if np.any(yi != y):
            raise LabelError("labels must be integers in {0, 1}")
        y = yi
    if np.any((y != 0) & (y != 1)):
        raise LabelError(f"labels outside {{0, 1}}: {sorted(set(y.tolist()) - {0, 1})}")
    if class_weights is None:
        w = np.ones(b, dtype=logits.dtype)
    else:
        w0, w1 = float(class_weights[0]), float(class_weights[1])
        w = np.where(y == 1, w1, w0).astype(logits.dtype)

    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    nll = lse - z[np.arange(b), y]
    loss = np.asarray((w * nll).sum() / b)

    def grad_fn(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        delta = p.copy()
        delta[np.arange(b), y] -= 1.0
        return (g * delta * (w / b)[:, None],)

    return _result(loss, (logits,), grad_fn, "softmax_cross_entropy")


def dropout(t: Tensor, p: float, training: bool, rng=None) -> Tensor:
    """Inverted dropout: zero with probability p and scale survivors by
    1/(1-p) at train time, exact identity at inference."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    t = _as_tensor(t)
    if not training or p == 0.0:
        return t
    if rng is None:
        raise ConfigError("training-mode dropout needs an explicit rng")
    keep = (rng.random(t.shape) >= p).astype(t.dtype) / (1.0 - p)
    data = t.data * keep

    def grad_fn(g):
        return (g * keep,)

    return _result(data, (t,), grad_fn, "dropout")


__all__ = [
    "Tensor",
    "add",
    "add_bias",
    "dropout",
    "exp",
    "l2_norm",
    "log",
    "matmul",
    "mul",
    "pow_k",
    "reduce_mean",
    "reduce_sum",
    "relu",
    "softmax",
    "softmax_cross_entropy",
    "sub",
    "transpose",
]
