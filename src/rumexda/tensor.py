"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: float64 numpy storage, eager graph
construction, and a backward pass that replays the recorded operations in
reverse topological order. Broadcasting is restricted to scalar-vs-tensor;
every other elementwise operation requires equal shapes. That is all the
losses and networks in this package need.

A graph node costs far more Python time than the small products it wraps,
so the engine records as few nodes as it can and walks only those:

* Inside ``with no_grad():`` an op records no parents, so its result is a
  constant to any later ``backward``; evaluation and frozen parts of a
  training step run there. A grad_fn returns ``None`` for a parent that
  needs no gradient, so frozen weights cost no gradient products either.
* ``backward`` orders the interior nodes only, and a node whose parents
  are all leaves, as every training step's is, needs no ordering: its
  grad_fn runs once. A leaf's contributions add up as its consumers run,
  and its ``grad`` is updated once at the end.
* ``linear(x, W, b)`` is one node for ``x W^T + b``, bitwise equal to
  ``add_bias(matmul(x, transpose(W)), b)``.
* ``linear_stack`` runs H such maps (one per classifier head) as one node
  over (H, n, d) arrays, reading the H weights and biases from one stacked
  tensor each, as the classifier heads store them. ``relu``, ``dropout``,
  ``softmax`` and ``softmax_cross_entropy`` act on such stacks as well,
  and ``pair_discrepancy`` compares the heads pair by pair; per-head and
  per-pair losses are added in head order, as a chain of ``add`` would.
* The model forward is two nodes. ``mlp`` runs the extractor's chain of
  linear+ReLU blocks, LoRA updates included, and ``head_stack`` runs the
  H heads' ``linear_stack -> relu -> dropout -> linear_stack``. Each is
  bitwise equal in value and gradient to the chain of nodes it replaces.
  Given a (B, rows, d) stack of equal batches, ``mlp`` runs them through
  each block's array ops at once, forward and backward, as one node whose
  value and gradients are bitwise those of one ``mlp`` per batch.
* ``moment_distance`` is the first- plus second-moment distance between
  feature batches (MD2) as one node, bitwise equal in value and gradient
  to the ``pow_k``, ``reduce_mean``, ``sub``, ``l2_norm``, ``add`` and
  ``mul`` graph that spells it out. Its moments, terms, norms and term
  gradients are whole-array ops over all batches at once.
* Each training step is one node. ``classify_loss`` is a classify step:
  the extractor over N source batches and, given one, a target batch, the
  1 or 2N heads, the CE and lambda * MD2. ``max_discrepancy_loss`` is m3sda
  step 2: the extractor with no gradient, one pass of the 2N heads over
  the target and the sources, the sources' CE minus the target's pair
  discrepancy. ``min_discrepancy_loss`` is m3sda step 3: the extractor,
  the fixed heads, softmax and pair discrepancy on the target. A
  vanilla, LoRA, m2s2da or m3sda backward walks 1 node in every step,
  where the chains of per-op nodes they replace walk 3, 7 or 9 (a
  classify step), 6 (step 2) or 4 (step 3).

``mlp``, ``head_stack``, ``softmax``, ``softmax_cross_entropy``,
``pair_discrepancy`` and ``moment_distance`` each run a forward and a
backward kernel (``_mlp_forward`` and ``_mlp_backward`` and so on) on
arrays, and the step nodes chain the same kernels, so each op's math is
written once. At a training step's 64-row shapes a call of one of numpy's
Python-level helpers (``np.stack``, ``.mean``, ``.sum``, ``np.zeros_like``,
``np.broadcast_to``, ``np.repeat``) costs about as much as the arithmetic
it wraps, so the kernels call the ufuncs and their methods directly
(``np.add.reduce(a, axis) / n`` for a mean, ``out=`` for a stack, in-place
ops on a kernel's own temporaries), with the same operands in the same
order, so every byte is the helper's.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    # ------------------------------------------------------------------
    def backward(self) -> None:
        """Accumulate gradients of this scalar into every requires_grad leaf.

        Repeated calls add up until ``grad`` is cleared, and shared
        subexpressions contribute once per path, which together give the
        usual multivariate chain rule on a DAG.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
        # a node whose parents are all leaves, as every training step's is,
        # is its own topological order
        topo: list[Tensor] = [self] if self._grad_fn is not None else []
        if not all(parent._grad_fn is None for parent in self._parents):
            # interior nodes only: a leaf has nothing to expand, and it is
            # visited when a gradient reaches it, not in topological order
            topo = []
            seen: set[int] = set()
            stack: list[tuple[Tensor, bool]] = [(self, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    topo.append(node)
                    continue
                if id(node) in seen or node._grad_fn is None:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for parent in node._parents:
                    if parent._grad_fn is not None and id(parent) not in seen:
                        stack.append((parent, False))
        grads: dict[int, np.ndarray] = {id(self): np.array(1.0, self.dtype).reshape(self.shape)}
        # a leaf's contributions add up in grads in the order its consumers
        # run, and land in its grad once, after the walk
        leaves: list[Tensor] = [] if topo else [self]
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if pg is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
                    if parent._grad_fn is None:
                        leaves.append(parent)
        for leaf in leaves:
            if leaf.requires_grad:
                g = grads[id(leaf)]
                leaf.grad = g if leaf.grad is None else leaf.grad + g

    # ------------------------------------------------------------------
    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)


_grad_enabled = True


@contextmanager
def no_grad():
    """Record no graph inside the block; nests, and the previous state comes
    back on exit, also when the block raises. The switch is process-wide."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._grad_fn is not None


def _result(data: np.ndarray, parents: Sequence[Tensor], grad_fn, op: str) -> Tensor:
    out = Tensor(data, dtype=data.dtype)
    if _grad_enabled and any(p.requires_grad or p._grad_fn is not None for p in parents):
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
        return (_unscalar(g, a) if _needs_grad(a) else None,
                _unscalar(g, b) if _needs_grad(b) else None)

    return _result(data, (a, b), grad_fn, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "sub")
    data = a.data - b.data

    def grad_fn(g):
        return (_unscalar(g, a) if _needs_grad(a) else None,
                _unscalar(-g, b) if _needs_grad(b) else None)

    return _result(data, (a, b), grad_fn, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "mul")
    data = a.data * b.data

    def grad_fn(g):
        return (_unscalar(g * b.data, a) if _needs_grad(a) else None,
                _unscalar(g * a.data, b) if _needs_grad(b) else None)

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
            return (np.zeros(t.shape),)
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
            return (np.zeros(t.shape),)
        return (g * t.data / norm,)

    return _result(data, (t,), grad_fn, "l2_norm")


# k for moments k = 1 and 2, shaped to scale a (2, batches, d) stack
_MOMENT_ORDERS = np.array([1.0, 2.0])[:, None, None]


@functools.lru_cache(maxsize=None)
def _md2_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MD2's terms over batches 0 (target) and 1..n (sources), as index
    arrays: term t is ``m[first[t]] - m[second[t]]``, the n source-target
    terms and then the pairwise ones in lexicographic order. Row i of
    ``order`` lists, in the order a chain of ``add`` nodes adds them, the
    terms whose gradients reach batch i's moment: index t for ``+term_t``
    and T + t for ``-term_t``, with T terms in all."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    first = [*range(1, n + 1), *(i for i, _ in pairs)]
    second = [0] * n + [j for _, j in pairs]
    neg = len(first)
    order = [[neg + i for i in range(n)]]
    order += [[i - 1, *(n + p if i == a else neg + n + p
                        for p, (a, b) in enumerate(pairs) if i in (a, b))]
              for i in range(1, n + 1)]
    arrays = (np.array(first), np.array(second), np.array(order))
    for a in arrays:
        a.flags.writeable = False  # shared by every call with this n
    return arrays


def _lay_out(arrays: list[np.ndarray]) -> tuple[np.ndarray, list]:
    """Batches of rows as one array, and each batch's index into it: a
    (batches, rows, d) stack indexed by batch number when every batch has
    the same row count, else all rows end to end, indexed by slices. Over
    the stack, ``np.matmul`` makes one BLAS call per batch and a mean over
    the rows axis adds each batch's rows in order, so each batch's products
    and means are those of the batch alone. A BLAS may round a row of a
    taller matrix differently (OpenBLAS does for some widths and row
    counts), so one product over all rows end to end would not do."""
    sizes = [len(a) for a in arrays]
    if sizes.count(sizes[0]) == len(sizes):
        return np.stack(arrays), list(range(len(arrays)))
    bounds = list(itertools.accumulate(sizes, initial=0))
    return np.concatenate(arrays), [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def moment_distance(z_sources: Sequence[Tensor], z_t: Tensor) -> Tensor:
    """MD2 between N source feature batches and a target batch, as one node.

    For k in {1, 2}, with m(z) the row mean of ``z ** k``, moment k adds
    ``||m(z_1) - m(z_t)|| + ... + ||m(z_N) - m(z_t)||``, scaled by 1/N when
    N >= 2, and then, when N >= 2, the pairwise terms ``||m(z_i) - m(z_j)||``
    over i < j in lexicographic order, scaled by 1/C(N, 2). Sums run left to
    right and moment 1 comes first, so the value is bitwise that of the
    chain of ``pow_k``, ``reduce_mean``, ``sub``, ``l2_norm``, ``add`` and
    ``mul`` nodes that spells this out, and so is every gradient:

    * a moment's gradient adds its terms' ``±(g_c * d / ||d||)`` (zero when
      ``||d||`` is 0), its source-target term first and then its pairwise
      terms in order; the target's adds its N source-target terms;
    * it is spread over the b rows as ``g / b`` and multiplied by
      ``k * z ** (k - 1)``.

    The work is whole-array: the moments of both orders for every batch,
    every term's difference and every norm are a few array ops each, and
    so are all the terms' gradients, which are then added per batch in the
    order above. Only the 2 x (N + C(N, 2)) norms are summed in Python.

    The parents are the batches twice, the k = 1 block and then the k = 2
    block, each ``[*z_sources, z_t]`` when N == 1 and ``[z_t, *z_sources]``
    when N >= 2. That is the order in which ``backward`` reaches the
    unfused graph's ``pow_k`` nodes, so a batch, and an extractor weight
    that several batches share, adds up its gradient contributions in the
    same order as there.
    """
    zs = [_as_tensor(z) for z in z_sources]
    z_t = _as_tensor(z_t)
    n = len(zs)
    if n == 0:
        raise ConfigError("moment_distance needs at least one source batch")
    for z in zs:
        if z.ndim != 2 or z_t.ndim != 2 or z.shape[1] != z_t.shape[1]:
            raise ShapeError(f"feature dims disagree: {z.shape} vs {z_t.shape}")
    batches = [z_t, *zs]
    data, index = _lay_out([z.data for z in batches])
    total, saved = _md2_forward(data, index, [len(z.data) for z in batches], n)
    block = batches[::-1] if n == 1 else batches

    def grad_fn(g):
        spread = _md2_backward(g, saved)
        per_batch = [spread[:, ix] for ix in index]
        if n == 1:
            per_batch.reverse()
        return [grad[k] if _needs_grad(z) else None
                for k in (0, 1) for z, grad in zip(block, per_batch)]

    return _result(total, block + block, grad_fn, "moment_distance")


def _md2_forward(data: np.ndarray, index: list, sizes: list[int], n: int):
    """MD2's value over a target batch and N source batches, laid out by
    ``_lay_out`` in ``data`` (batch i is ``data[index[i]]``, of ``sizes[i]``
    rows; the target is first), and what ``_md2_backward`` reads."""
    if 0 in sizes:
        raise DegenerateInputError("moment distance over an empty batch")
    first, second, _ = _md2_terms(n)
    st_scale = 1.0 / n
    pair_scale = 1.0 / math.comb(n, 2) if n >= 2 else 0.0
    # z ** 1.0 is z itself and z ** 2.0 is z * z; moment k is slice k - 1 of
    # each stack below, and a mean is the row sum over the row count
    powers = np.empty((2, *data.shape))
    powers[0] = data
    np.multiply(data, data, out=powers[1])
    moments = (np.add.reduce(powers, 2) / sizes[0] if data.ndim == 3 else
               np.stack([np.add.reduce(powers[:, ix], 1) / size
                         for ix, size in zip(index, sizes)], axis=1))
    diffs = moments[:, first] - moments[:, second]
    norms = np.sqrt(np.add.reduce(diffs * diffs, 2))
    total = None
    for k_norms in norms.tolist():
        part = _sum_in_order(k_norms[:n])
        if n >= 2:
            part = part * st_scale + _sum_in_order(k_norms[n:]) * pair_scale
        total = part if total is None else total + part
    return np.asarray(total), (data, index, sizes, n, st_scale, pair_scale, diffs, norms)


def _md2_backward(g, saved) -> np.ndarray:
    """The batches' gradients for the upstream ``g``, laid out as their
    rows are, as the stack of the moment-1 and the moment-2 contribution:
    batch i's part of moment k's is ``[k - 1, index[i]]``."""
    data, index, sizes, n, st_scale, pair_scale, diffs, norms = saved
    first, _, order = _md2_terms(n)
    scales = np.empty(len(first))
    scales[:n] = g if n == 1 else g * st_scale
    scales[n:] = g * pair_scale
    # l2_norm's gradient per term, zero at the origin
    term_grads = np.divide(scales[:, None] * diffs, norms[..., None],
                           out=np.zeros(diffs.shape), where=norms[..., None] != 0.0)
    signed = np.concatenate([term_grads, -term_grads], axis=1)[:, order]
    moment_grads = signed[:, :, 0]
    for s in range(1, n):
        moment_grads = moment_grads + signed[:, :, s]
    # spread over each batch's b rows as g / b * k; for k = 2 times z
    row_grads = moment_grads / np.array(sizes)[:, None] * _MOMENT_ORDERS
    spread = (row_grads[:, :, None].repeat(sizes[0], axis=2) if data.ndim == 3
              else row_grads.repeat(sizes, axis=1))
    spread[1] *= data
    return spread


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
        return (g @ b.data.T if _needs_grad(a) else None,
                a.data.T @ g if _needs_grad(b) else None)

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
        return g if _needs_grad(t) else None, np.add.reduce(g, 0) if _needs_grad(bias) else None

    return _result(data, (t, bias), grad_fn, "add_bias")


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Rows of a b x d_in tensor times W^T (W is d_out x d_in), plus an
    optional length-d_out bias, as one node.

    W^T is first copied to a contiguous array, as ``transpose`` does, so
    every product is bitwise that of ``add_bias(matmul(x, transpose(W)), b)``.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: cannot apply weight {weight.shape} to rows of {x.shape}")
    wt = np.ascontiguousarray(weight.data.T)
    data = x.data @ wt
    parents = (x, weight)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (weight.shape[0],):
            raise ShapeError(f"linear: bias {bias.shape} does not match weight {weight.shape}")
        data += bias.data
        parents = (x, weight, bias)

    def grad_fn(g):
        grads = (g @ wt.T if _needs_grad(x) else None,
                 np.ascontiguousarray((x.data.T @ g).T) if _needs_grad(weight) else None)
        if bias is None:
            return grads
        return grads + (np.add.reduce(g, 0) if _needs_grad(bias) else None,)

    return _result(data, parents, grad_fn, "linear")


def mlp(x, layers: Sequence[tuple]) -> Tensor:
    """A chain of linear+ReLU blocks over the rows of ``x``, as one node.

    A layer is ``(W, b)``, or ``(W, b, down, up, scale)`` for a block with a
    LoRA update. Block by block, ``h`` becomes ``relu(h W^T + b)``, where a
    LoRA block adds ``((h down^T) up^T) * scale`` before the ReLU. Every
    product is the one ``linear`` computes, so the value is bitwise that of
    ``relu(linear(h, W, b))``, or for a LoRA block
    ``relu(add(linear(h, W, b), mul(linear(linear(h, down), up), scale)))``,
    and so is every gradient. The backward repeats those ops' products in
    reverse, computes no gradient that no parent needs, and stops below the
    lowest block with a parameter that needs one, unless ``x`` needs one.

    ``x`` may also be a (B, rows, d) stack of equal batches. Their rows then
    go through each block together, one product, bias add and ReLU per
    array op, and the products are made per batch (see ``_lay_out``), so
    slice b of the value is bitwise ``mlp(x[b], layers)``. So is slice b of
    the input's gradient, and a layer tensor's gradient adds the batches'
    gradients up in batch order.
    """
    x = _as_tensor(x)
    if x.ndim not in (2, 3) or x.ndim == 3 and not len(x.data):
        raise ShapeError(f"mlp expects rows of a rank-2 tensor or a non-empty stack of them, "
                         f"got {x.shape}")
    out, saved = _mlp_forward(x.data, layers)
    params = [p for layer in layers for p in layer[:4]]

    def grad_fn(g):
        grads, gx = _mlp_backward(g, saved, len(params), _needs_grad(x))
        return [gx, *grads]

    return _result(out, [x, *params], grad_fn, "mlp")


def _mlp_forward(h: np.ndarray, layers: Sequence[tuple]):
    """The blocks' output over the rows ``h``, or a stack of them, and, per
    block, what ``_mlp_backward`` reads: the position of its W among the
    layers' tensors, the layer, its input, W^T, the pre-activation and the
    LoRA arrays (None without LoRA)."""
    saved = []
    at = 0
    for layer in layers:
        weight, bias = layer[0], layer[1]
        if weight.ndim != 2 or h.shape[-1] != weight.shape[1] or bias.shape != weight.shape[:1]:
            raise ShapeError(f"mlp: cannot apply weight {weight.shape} and bias {bias.shape} "
                             f"to rows of {h.shape}")
        wt = np.ascontiguousarray(weight.data.T)
        pre = np.matmul(h, wt)
        pre += bias.data
        lora = None
        if len(layer) == 5:
            down, up, scale = layer[2:]
            if down.shape[1:] != h.shape[-1:] or up.shape != (weight.shape[0], down.shape[0]):
                raise ShapeError(f"mlp: LoRA factors {down.shape} and {up.shape} do not fit "
                                 f"weight {weight.shape}")
            dt, ut = np.ascontiguousarray(down.data.T), np.ascontiguousarray(up.data.T)
            mid = np.matmul(h, dt)
            pre = pre + np.matmul(mid, ut) * scale
            lora = (dt, ut, mid)
        saved.append((at, layer, h, wt, pre, lora))
        at += len(layer[:4])
        h = np.maximum(pre, 0)
    return h, saved


def _mlp_backward(g: np.ndarray, saved: list, n_params: int, x_wanted: bool):
    """The gradients of the layers' tensors, in layer order, and of the
    input rows, for the upstream ``g`` of the saved rows or stack; None
    where nothing needs one. The walk stops below the lowest block with a
    tensor that needs a gradient, unless ``x_wanted``. Over a (B, rows, d)
    stack each array op runs on all batches at once, its products made per
    batch, and a layer tensor adds the batches' gradients up in batch order,
    so every gradient is bitwise what one walk per batch adds up."""
    grads = [None] * n_params
    stacked = g.ndim == 3
    # whether each block's input needs a gradient
    wants, want = [], x_wanted
    for _, layer, *_ in saved:
        wants.append(want)
        want = want or any(_needs_grad(p) for p in layer[:4])
    for (at, layer, h_in, wt, pre, lora), want in zip(reversed(saved), reversed(wants)):
        g = g * (pre > 0)
        if _needs_grad(layer[0]):
            grads[at] = _weight_grad(h_in, g, stacked)
        if _needs_grad(layer[1]):
            grads[at + 1] = _batch_total(np.add.reduce(g, -2), stacked)
        gx = g @ wt.T if want else None
        if lora is not None:
            down, up, scale = layer[2:]
            dt, ut, mid = lora
            mid_wanted = want or _needs_grad(down)
            if mid_wanted or _needs_grad(up):
                gd = g * scale
                if _needs_grad(up):
                    grads[at + 3] = _weight_grad(mid, gd, stacked)
                if mid_wanted:
                    gmid = gd @ ut.T
                    if _needs_grad(down):
                        grads[at + 2] = _weight_grad(h_in, gmid, stacked)
                    if want:
                        gx = gx + gmid @ dt.T
        if not want:
            return grads, None
        g = gx
    return grads, g


def _weight_grad(h: np.ndarray, g: np.ndarray, stacked: bool) -> np.ndarray:
    """A weight's gradient ``(h^T g)^T`` as a contiguous array; over a
    stack, one product per batch, added up in batch order."""
    return np.ascontiguousarray(_batch_total(np.matmul(h.swapaxes(-1, -2), g), stacked).T)


def _batch_total(per_batch: np.ndarray, stacked: bool) -> np.ndarray:
    # a stack's per-batch gradients of one tensor, added up in batch order
    return _sum_in_order(per_batch) if stacked else per_batch


def _stack_inputs(x, weight: Tensor, bias: Tensor, op: str):
    """``(single, xs, xdata)`` for a stacked layer's input in any of the
    forms ``linear_stack`` takes; ``xdata`` is its H x n x d_in or
    n x d_in array."""
    single = isinstance(x, Tensor)
    xs = [x] if single else [_as_tensor(t) for t in x]
    try:
        xdata = x.data if single else np.stack([t.data for t in xs])
    except ValueError as exc:
        raise ShapeError(f"{op}: per-head inputs disagree: {exc}") from exc
    _check_stack(xdata, weight, bias, op)
    return single, xs, xdata


def _check_stack(xdata: np.ndarray, weight: Tensor, bias: Tensor, op: str,
                 blocks: bool = False) -> None:
    # with ``blocks``, a leading axis may stack several H x n x d_in inputs
    if xdata.ndim not in ((2, 3, 4) if blocks else (2, 3)) or weight.ndim != 3 \
            or bias.shape != weight.shape[:2] or not (
            (xdata.ndim == 2 or xdata.shape[-3] == weight.shape[0])
            and xdata.shape[-1] == weight.shape[2]):
        raise ShapeError(f"{op}: cannot apply weights {weight.shape} and biases "
                         f"{bias.shape} to inputs of shape {xdata.shape}")


def _stack_forward(xdata: np.ndarray, weight: Tensor, bias: Tensor):
    """``(W^T stack, x W^T + b)``; a shared input broadcasts over the heads."""
    wt = np.ascontiguousarray(weight.data.transpose(0, 2, 1))
    data = np.matmul(xdata, wt)
    data += bias.data[:, None, :]
    return wt, data


def _stack_input_grads(g: np.ndarray, wt: np.ndarray, single: bool, needs: list[bool],
                       xdata: np.ndarray):
    # a shared input adds its per-head gradients up in head order
    if not any(needs):
        return [None] * len(needs)
    gx = np.matmul(g, wt.swapaxes(1, 2))
    if single:
        return [_sum_in_order(gx) if xdata.ndim == 2 else gx]
    return [gx[h] if need else None for h, need in enumerate(needs)]


def _stack_param_grads(g: np.ndarray, xdata: np.ndarray, need_weight: bool, need_bias: bool):
    # over a stack of H-head blocks, the blocks' gradients added up in block order
    blocks = g.ndim == 4
    return (_batch_total(np.matmul(xdata.swapaxes(-1, -2), g), blocks).swapaxes(-1, -2)
            if need_weight else None,
            _batch_total(np.add.reduce(g, -2), blocks) if need_bias else None)


def linear_stack(x, weight: Tensor, bias: Tensor) -> Tensor:
    """H linear maps as one node: slice h of the H x n x d_out result is
    bitwise ``linear(x_h, weight[h], bias[h])``.

    ``weight`` is an H x d_out x d_in stack and ``bias`` an H x d_out one.
    ``x`` is an H x n x d_in tensor, an n x d_in tensor that every head
    reads, or a sequence of H tensors of shape n x d_in in which one tensor
    may feed several heads. An input's gradient adds up over the heads
    that read it, in head order.
    """
    weight, bias = _as_tensor(weight), _as_tensor(bias)
    single, xs, xdata = _stack_inputs(x, weight, bias, "linear_stack")
    wt, data = _stack_forward(xdata, weight, bias)

    def grad_fn(g):
        return (*_stack_input_grads(g, wt, single, [_needs_grad(t) for t in xs], xdata),
                *_stack_param_grads(g, xdata, _needs_grad(weight), _needs_grad(bias)))

    return _result(data, [*xs, weight, bias], grad_fn, "linear_stack")


def head_stack(x, weight1: Tensor, bias1: Tensor, weight2: Tensor, bias2: Tensor,
               p: float, training: bool, rng=None) -> Tensor:
    """H classifier heads, ``linear_stack -> relu -> dropout -> linear_stack``,
    as one node.

    ``x`` takes the forms ``linear_stack`` takes. The value is bitwise that
    of the four-node chain and so is every gradient, and the dropout mask
    takes the same draw from ``rng`` as ``dropout`` there. The backward
    computes no gradient that no parent needs, and goes back through the
    first layer only when its weights or an input need one.
    """
    weight1, bias1 = _as_tensor(weight1), _as_tensor(bias1)
    weight2, bias2 = _as_tensor(weight2), _as_tensor(bias2)
    single, xs, xdata = _stack_inputs(x, weight1, bias1, "head_stack")
    params = [weight1, bias1, weight2, bias2]
    data, saved = _head_forward(xdata, *params, p, training, rng)

    def grad_fn(g):
        return _head_backward(g, saved, xdata, single, [_needs_grad(t) for t in xs + params])

    return _result(data, xs + params, grad_fn, "head_stack")


def _head_forward(xdata: np.ndarray, weight1: Tensor, bias1: Tensor, weight2: Tensor,
                  bias2: Tensor, p: float, training: bool, rng):
    """The heads' logits over the checked input array ``xdata``, or over a
    (blocks, H, n, f) stack of inputs, and what ``_head_backward`` reads."""
    wt1, pre = _stack_forward(xdata, weight1, bias1)
    hidden = np.maximum(pre, 0)
    keep = _dropout_keep(hidden, p, training, rng)
    if keep is not None:
        hidden *= keep
    _check_stack(hidden, weight2, bias2, "head_stack", blocks=True)
    wt2, data = _stack_forward(hidden, weight2, bias2)
    return data, (wt1, pre, keep, hidden, wt2)


def _head_backward(g: np.ndarray, saved: tuple, xdata: np.ndarray, single: bool,
                   needs: list[bool]):
    """The gradients of the inputs, then of weight1, bias1, weight2 and
    bias2, for the upstream ``g``; ``needs`` says which of them, in that
    order, need one."""
    wt1, pre, keep, hidden, wt2 = saved
    *x_needs, need_w1, need_b1, need_w2, need_b2 = needs
    gw2, gb2 = _stack_param_grads(g, hidden, need_w2, need_b2)
    if not (need_w1 or need_b1 or any(x_needs)):
        return (*[None] * len(x_needs), None, None, gw2, gb2)
    g = np.matmul(g, wt2.swapaxes(1, 2))
    if keep is not None:
        g *= keep
    g *= pre > 0
    return (*_stack_input_grads(g, wt1, single, x_needs, xdata),
            *_stack_param_grads(g, xdata, need_w1, need_b1), gw2, gb2)


# ----------------------------------------------------------------------
# classification head pieces


def softmax(t: Tensor) -> Tensor:
    """Softmax over the last axis of b x 2 logits or of a stack of them (max-shift
    trick; the two-class max and sum are column operations, bitwise the reductions)."""
    t = _as_tensor(t)
    if t.ndim < 2 or t.shape[-1] != 2:
        raise ShapeError(f"softmax expects b x 2 logits or a stack of them, got {t.shape}")
    p = _softmax_forward(t.data)

    def grad_fn(g):
        return (_softmax_backward(g, p),)

    return _result(p, (t,), grad_fn, "softmax")


def _softmax_forward(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.maximum(z[..., 0], z[..., 1])[..., None])
    e /= (e[..., 0] + e[..., 1])[..., None]
    return e


def _softmax_backward(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    gp = g * p
    return p * (g - (gp[..., 0] + gp[..., 1])[..., None])


def _sum_in_order(values: np.ndarray) -> np.ndarray:
    # left to right, as a chain of add nodes adds; np.sum groups the terms differently
    total = values[0]
    for value in values[1:]:
        total = total + value
    return np.asarray(total)


def softmax_cross_entropy(logits: Tensor, labels, class_weights=None) -> Tensor:
    """Mean negative log-likelihood of binary logits against 0/1 labels.

    Uses the log-sum-exp form for stability. When ``class_weights`` is a
    (w0, w1) pair, each sample's term is rescaled by the weight of its
    label; the sum is still divided by the batch size. A stack of H heads
    (H x b x 2 logits, H x b labels) gives the sum of the per-head losses,
    added in head order, as one node.
    """
    logits = _as_tensor(logits)
    y = _ce_labels(logits.data, labels)
    w = None if class_weights is None else np.where(
        y == 1, float(class_weights[1]), float(class_weights[0])).astype(logits.dtype)
    loss, saved = _ce_forward(logits.data, y, w)

    def grad_fn(g):
        return (_ce_backward(g, saved),)

    return _result(loss, (logits,), grad_fn, "softmax_cross_entropy")


def _ce_labels(z: np.ndarray, labels) -> np.ndarray:
    """The checked integer labels for the logits ``z``."""
    shape = z.shape
    if len(shape) not in (2, 3) or shape[-1] != 2:
        raise ShapeError(f"expected b x 2 logits or a stack of them, got {shape}")
    y = np.asarray(labels)
    if y.shape != shape[:-1]:
        raise ShapeError(f"labels of shape {y.shape} do not match logits {shape}")
    if shape[-2] == 0:
        raise DegenerateInputError("cross entropy over an empty batch")
    if y.dtype.kind not in "iu":
        yi = y.astype(np.int64)
        if np.any(yi != y):
            raise LabelError("labels must be integers in {0, 1}")
        y = yi
    if y.size and (np.minimum.reduce(y, None) < 0 or np.maximum.reduce(y, None) > 1):
        raise LabelError(f"labels outside {{0, 1}}: {sorted(set(y.ravel().tolist()) - {0, 1})}")
    return y


def _ce_forward(z: np.ndarray, y: np.ndarray, w=None):
    """The loss of the logits ``z`` against the labels ``y``, each sample
    weighted by ``w`` when given, and what ``_ce_backward`` reads."""
    m = np.maximum(z[..., 0], z[..., 1])  # bitwise the max over the last axis
    e = np.exp(z - m[..., None])
    total = e[..., 0] + e[..., 1]
    nll = m + np.log(total) - np.where(y == 1, z[..., 1], z[..., 0])
    # per head, the row sum over the row count
    per_head = np.add.reduce(nll if w is None else w * nll, -1) / z.shape[-2]
    return _sum_in_order(per_head.reshape(-1)), (y, w, e, total)


def _ce_backward(g, saved) -> np.ndarray:
    y, w, e, total = saved
    b = e.shape[-2]
    p = e / total[..., None]
    p[..., 0] -= y == 0
    p[..., 1] -= y == 1
    return g * p * (1.0 / b if w is None else (w / b)[..., None])


def pair_discrepancy(p: Tensor) -> Tensor:
    """Sum over pairs i, in pair order, of mean(|p[2i] - p[2i+1]|) for a
    2N x b x c stack, as one node; |x| is relu(x) + relu(-x), so the
    subgradient at zero disagreement is zero."""
    p = _as_tensor(p)
    total, saved = _pair_forward(p.data)

    def grad_fn(g):
        return (_pair_backward(g, saved),)

    return _result(total, (p,), grad_fn, "pair_discrepancy")


def _pair_forward(p: np.ndarray):
    """The summed pair discrepancy of the 2N x b x c stack ``p`` and what
    ``_pair_backward`` reads."""
    if p.ndim != 3 or p.shape[0] == 0 or p.shape[0] % 2:
        raise ShapeError(f"pair_discrepancy expects a 2N x b x c stack, got {p.shape}")
    if p.size == 0:
        raise DegenerateInputError("pair discrepancy over an empty batch")
    diff = p[0::2] - p[1::2]
    neg = diff * -1.0
    per_pair = np.add.reduce((np.maximum(diff, 0) + np.maximum(neg, 0)).reshape(len(diff), -1),
                             1) / diff[0].size
    return _sum_in_order(per_pair), (diff, neg)


def _pair_backward(g, saved) -> np.ndarray:
    diff, neg = saved
    scaled = g / diff[0].size
    gdiff = scaled * (diff > 0) + scaled * (neg > 0) * -1.0
    grad = np.empty((2 * len(diff), *diff.shape[1:]))
    grad[0::2] = gdiff
    grad[1::2] = -gdiff
    return grad


def _dropout_keep(data: np.ndarray, p: float, training: bool, rng):
    """Inverted dropout's scaled keep mask for ``data``, or ``None`` where
    dropout is the identity."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    if rng is None:
        raise ConfigError("training-mode dropout needs an explicit rng")
    draw = rng.random(data.shape)
    return np.multiply(draw >= p, 1.0 / (1.0 - p), out=draw)


def dropout(t: Tensor, p: float, training: bool, rng=None) -> Tensor:
    """Inverted dropout: zero with probability p and scale survivors by
    1/(1-p) at train time, exact identity at inference."""
    t = _as_tensor(t)
    keep = _dropout_keep(t.data, p, training, rng)
    if keep is None:
        return t
    data = t.data * keep

    def grad_fn(g):
        return (g * keep,)

    return _result(data, (t,), grad_fn, "dropout")


# ----------------------------------------------------------------------
# one training step


def _step_rows(x, op: str, stacked: bool = True) -> np.ndarray:
    """The (rows, d) batch ``x``, or the equal batches ``x``, a sequence of
    them or one (B, rows, d) array, as one checked float stack."""
    try:
        rows = np.asarray(np.stack(x) if stacked and not isinstance(x, np.ndarray) else x,
                          np.float64)
    except ValueError as exc:
        raise ShapeError(f"{op}: {exc}") from None
    if rows.ndim != (3 if stacked else 2):
        raise ShapeError(f"{op} expects (rows, d) batches, got {rows.shape[stacked:]}")
    return rows


def classify_loss(x, labels, layers: Sequence[tuple], weight1: Tensor, bias1: Tensor,
                  weight2: Tensor, bias2: Tensor, p: float, rng, lam: Optional[float] = None):
    """A classify step's loss over N source batches as one node.

    ``x`` holds batches of equal shape (rows, d), as a sequence or as one
    (B, rows, d) array: the N source batches, or, given ``lam``, a target
    batch and then the N sources. They go through the extractor ``layers``
    (as ``mlp`` takes them) as one stack, and H = 1 or 2N classifier heads
    (``weight1`` H x f x f and so on, as ``head_stack`` takes them, with
    training-mode dropout drawn from ``rng``) read the sources' features;
    head h reads source batch ``h * N // H``. The loss is the heads' cross
    entropy against the H x rows 0/1 ``labels``, added in head order, and,
    given ``lam``, ``lam`` times the MD2 between the sources' features and
    the target's.

    Returns ``(loss, ce, md2)``: the node, and the CE and MD2 values as
    floats (``md2`` is None without ``lam``). The loss and every gradient
    are bitwise those of the per-op graph (``mlp`` per batch, ``head_stack``,
    ``softmax_cross_entropy``, ``moment_distance``, ``mul`` and ``add``): the
    same kernels run, and gradients add up in the order ``backward`` adds
    them there. A source batch's features take the gradients of the heads
    that read it, in head order, then MD2's moment-1 and then its moment-2
    term, and an extractor tensor adds the batches' gradients up in the
    order target, source 0, ..., source N - 1.
    """
    target = lam is not None
    n, heads = len(x) - target, weight1.shape[0]
    if n < 1 or heads not in (1, 2 * n):
        raise ShapeError(f"classify_loss: {heads} heads over {n} source batches")
    # with one head and no target, the extractor runs only the batch the head reads
    one = not target and heads == 1
    feats, saved = _mlp_forward(_step_rows(x[0] if one else x, "classify_loss", not one), layers)
    z_s = feats[1:] if target else feats
    head_in = z_s if one else z_s[0] if heads == 1 else z_s.repeat(2, axis=0)
    _check_stack(head_in, weight1, bias1, "classify_loss")
    head = [weight1, bias1, weight2, bias2]
    logits, head_saved = _head_forward(head_in, *head, p, True, rng)
    ce, ce_saved = _ce_forward(logits, _ce_labels(logits, labels))
    loss, md2 = ce, None
    if target:
        md2, md2_saved = _md2_forward(feats, range(n + 1), [len(feats[0])] * (n + 1), n)
        lam = float(lam)
        loss = ce + md2 * lam
    extractor = [t for layer in layers for t in layer[:4]]

    def grad_fn(g):
        needs = [_needs_grad(t) for t in extractor + head]
        want = any(needs[:len(extractor)])
        g_in, *head_grads = _head_backward(_ce_backward(g, ce_saved), head_saved, head_in, True,
                                           [want, *needs[len(extractor):]])
        if not want:
            return [None] * len(extractor) + head_grads
        # per source batch, the gradients of the heads that read it, in head order
        g_feats = g_in if heads == 1 else g_in[0::2] + g_in[1::2]
        if md2 is not None:
            # (2 moments, target and sources, rows, f); a source adds the
            # heads' gradient (with one head, source 0 alone has one), then
            # moment 1's and then moment 2's
            spread = _md2_backward(g * lam, md2_saved)
            spread[0, 1 if heads == 1 else slice(1, None)] += g_feats
            g_feats = spread[0] + spread[1]
        grads, _ = _mlp_backward(g_feats, saved, len(extractor), False)
        return grads + head_grads

    return (_result(np.asarray(loss), extractor + head, grad_fn, "classify_loss"), float(ce),
            None if md2 is None else float(md2))


def max_discrepancy_loss(x, labels, layers: Sequence[tuple], weight1: Tensor, bias1: Tensor,
                         weight2: Tensor, bias2: Tensor, p: float, rng):
    """m3sda step 2's loss as one node: with the extractor fixed, the 2N
    heads' CE on N source batches minus their pair discrepancy on a target
    batch. Returns ``(loss, ce, disc)``: the node, whose parents are the
    four head tensors (as ``head_stack`` takes them), the CE and the
    discrepancy.

    ``x`` holds the target batch and then the N source batches, all (rows,
    d), as a sequence or as one (N + 1, rows, d) array. They run through the
    extractor ``layers`` with no gradient as one stack, and the heads then
    run once over a (2, 2N, rows, f) stack: block 0 is the target's
    features, which every head reads, and block 1 gives head h source batch
    h // 2, labelled by the 2N x rows ``labels``. One dropout draw from
    ``rng`` masks both blocks, block 0 first. The loss, every gradient and
    the next draw are bitwise those of the per-op graph: ``mlp`` under
    ``no_grad``, ``head_stack``, ``softmax`` and ``pair_discrepancy`` over
    the target, ``head_stack`` and ``softmax_cross_entropy`` over the
    sources, and ``sub``.
    """
    n, heads = len(x) - 1, weight1.shape[0]
    if n < 1 or heads != 2 * n:
        raise ShapeError(f"max_discrepancy_loss: {heads} heads over {n} source batches")
    feats, _ = _mlp_forward(_step_rows(x, "max_discrepancy_loss"), layers)
    head_in = np.empty((2, heads, *feats.shape[1:]))
    head_in[0] = feats[0]
    head_in[1, 0::2] = head_in[1, 1::2] = feats[1:]
    _check_stack(head_in, weight1, bias1, "max_discrepancy_loss", blocks=True)
    head = [weight1, bias1, weight2, bias2]
    logits, head_saved = _head_forward(head_in, *head, p, True, rng)
    probs = _softmax_forward(logits[0])
    disc, disc_saved = _pair_forward(probs)
    ce, ce_saved = _ce_forward(logits[1], _ce_labels(logits[1], labels))

    def grad_fn(g):
        g_logits = np.empty_like(logits)
        g_logits[0] = _softmax_backward(_pair_backward(-g, disc_saved), probs)
        g_logits[1] = _ce_backward(g, ce_saved)
        return _head_backward(g_logits, head_saved, head_in, True,
                              [False, *map(_needs_grad, head)])[1:]

    return (_result(np.asarray(ce - disc), head, grad_fn, "max_discrepancy_loss"), float(ce),
            float(disc))


def min_discrepancy_loss(x_t, layers: Sequence[tuple], weight1: Tensor, bias1: Tensor,
                         weight2: Tensor, bias2: Tensor, p: float, rng) -> Tensor:
    """m3sda step 3's loss as one node: the pair discrepancy of the 2N heads
    (as ``head_stack`` takes them, dropout drawn from ``rng``) on the
    target rows ``x_t`` through the extractor ``layers``. The parents are
    the extractor's tensors only, so no head gets a gradient. The value,
    every gradient and the next draw are bitwise those of the per-op graph
    (``mlp``, ``head_stack`` with the heads' ``requires_grad`` off,
    ``softmax`` and ``pair_discrepancy``).
    """
    feats, saved = _mlp_forward(_step_rows(x_t, "min_discrepancy_loss", False), layers)
    _check_stack(feats, weight1, bias1, "min_discrepancy_loss")
    logits, head_saved = _head_forward(feats, weight1, bias1, weight2, bias2, p, True, rng)
    probs = _softmax_forward(logits)
    disc, disc_saved = _pair_forward(probs)
    extractor = [t for layer in layers for t in layer[:4]]

    def grad_fn(g):
        g_logits = _softmax_backward(_pair_backward(g, disc_saved), probs)
        g_feats = _head_backward(g_logits, head_saved, feats, True, [True] + [False] * 4)[0]
        return _mlp_backward(g_feats, saved, len(extractor), False)[0]

    return _result(disc, extractor, grad_fn, "min_discrepancy_loss")


__all__ = [
    "Tensor",
    "add",
    "add_bias",
    "classify_loss",
    "dropout",
    "exp",
    "head_stack",
    "l2_norm",
    "linear",
    "linear_stack",
    "log",
    "matmul",
    "max_discrepancy_loss",
    "min_discrepancy_loss",
    "mlp",
    "moment_distance",
    "mul",
    "no_grad",
    "pair_discrepancy",
    "pow_k",
    "reduce_mean",
    "reduce_sum",
    "relu",
    "softmax",
    "softmax_cross_entropy",
    "sub",
    "transpose",
]
