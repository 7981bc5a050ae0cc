"""Plain SGD and Adam parameter updates over one flat buffer per group.

Each optimizer copies its group's parameter values into one contiguous
float64 buffer and rebinds every ``p.data`` to a view of its slice, so a
step is a few whole-buffer array operations instead of a loop over
tensors. Every operation is elementwise, so each parameter ends up bitwise
equal to what a per-tensor update gives. A second optimizer built over the
same tensors starts a new buffer from their current values; the earlier
one then no longer moves them. After each step one pass over the buffer
checks that every parameter is still finite. Adam runs the ufuncs of its
update formula in the formula's order into two scratch buffers allocated
with the group, so a step allocates no temporaries.

Both update in place and are deterministic given their state; the choice
between them is a config field because the training recipe leaves the
optimizer open.
"""

from __future__ import annotations

import numpy as np

from .errors import TrainingStateError
from .tensor import Tensor


class _Optimizer:
    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = float(lr)
        self._buf = np.empty(sum(p.size for p in self.params))
        offset = 0
        for p in self.params:
            view = self._buf[offset:offset + p.size].reshape(p.shape)
            view[...] = p.data
            p.data = view
            offset += p.size
        self._grad = np.empty_like(self._buf)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _gathered_grad(self) -> np.ndarray:
        """Every parameter's gradient, in group order, as one flat array."""
        if any(p.grad is None for p in self.params):
            raise TrainingStateError("trainable parameter has no gradient; run backward() first")
        if self.params:
            np.concatenate([p.grad.reshape(-1) for p in self.params], out=self._grad)
        return self._grad

    def step(self) -> None:
        """Update every parameter; ``TrainingStateError`` if one ends up not finite."""
        self._update(self._gathered_grad())
        if not np.logical_and.reduce(np.isfinite(self._buf)):
            raise TrainingStateError("training diverged: a parameter is not finite after "
                                     f"the {type(self).__name__} step")

    def _update(self, g: np.ndarray) -> None:
        raise NotImplementedError


class SGD(_Optimizer):
    def _update(self, g: np.ndarray) -> None:
        self._buf -= self.lr * g


class Adam(_Optimizer):
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.t = 0
        # the moments, and scratch for the update's intermediates
        self._m, self._v, self._s1, self._s2 = (np.zeros(self._buf.shape) for _ in range(4))

    def _update(self, g: np.ndarray) -> None:
        # op for op ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
        # ``buf -= lr m_hat / (sqrt(v_hat) + eps)``, into the scratch buffers
        self.t += 1
        b1, b2, m, v, s1, s2 = self.beta1, self.beta2, self._m, self._v, self._s1, self._s2
        m *= b1
        m += np.multiply(1 - b1, g, out=s1)
        v *= b2
        v += np.multiply(np.multiply(1 - b2, g, out=s1), g, out=s1)
        np.divide(m, 1 - b1 ** self.t, out=s1)
        np.sqrt(np.divide(v, 1 - b2 ** self.t, out=s2), out=s2)
        s2 += self.eps
        self._buf -= np.divide(np.multiply(self.lr, s1, out=s1), s2, out=s1)


def make_optimizer(name: str, params: list[Tensor], lr: float) -> _Optimizer:
    if name == "sgd":
        return SGD(params, lr)
    if name == "adam":
        return Adam(params, lr)
    raise TrainingStateError(f"unknown optimizer {name!r}")
