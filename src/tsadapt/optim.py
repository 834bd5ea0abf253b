"""Adam optimizer over engine tensors.

The moments of every parameter live in two flat buffers, and the gradients
and the update in flat scratch buffers, so one step is about a dozen
whole-buffer numpy calls that allocate no array, plus one gradient copy and
one in-place update per parameter.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor
from .errors import ConfigurationError


class Adam:
    """Standard Adam: theta -= lr * mhat / (sqrt(vhat) + eps).

    Every parameter must share one dtype, which the moments take. Each
    element sees the same arithmetic as a per-tensor loop, so the result is
    bitwise that loop's. lr = 0 leaves parameters bitwise unchanged while
    still counting a step. zero_grad sets every gradient to None; step reads
    a gradient that is still None as zeros.
    """

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params: list[Tensor] = list(params)
        if not math.isfinite(lr) or lr < 0:
            raise ConfigurationError(f"learning rate must be finite and >= 0, got {lr}")
        if not all(p.requires_grad for p in self.params):
            raise ConfigurationError("Adam needs requires_grad parameters")
        dtypes = sorted({p.data.dtype.name for p in self.params})
        if len(dtypes) > 1:
            raise ConfigurationError(f"Adam needs parameters of one dtype, got {dtypes}")
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.t = 0
        self._slices, size = [], 0
        for p in self.params:
            self._slices.append(slice(size, size + p.data.size))
            size += p.data.size
        dtype = dtypes[0] if dtypes else np.float64
        self._m = np.zeros(size, dtype)
        self._v = np.zeros(size, dtype)
        # scratch for the gradients and the update: no step allocates
        self._g = np.empty(size, dtype)
        self._a = np.empty(size, dtype)
        self._b = np.empty(size, dtype)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        if not self.params:
            return
        b1, b2, m, v, g, a, b = (self.beta1, self.beta2, self._m, self._v,
                                 self._g, self._a, self._b)
        for p, s in zip(self.params, self._slices):
            g[s] = 0.0 if p.grad is None else p.grad.reshape(-1)
        # m = b1 * m + (1 - b1) * g, and v = b2 * v + (1 - b2) * g * g
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=a)
        v *= b2
        np.multiply(g, 1.0 - b2, out=a)
        v += np.multiply(a, g, out=a)
        # update = lr * mhat / (sqrt(vhat) + eps)
        np.divide(m, 1.0 - b1 ** self.t, out=a)
        np.divide(v, 1.0 - b2 ** self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a *= self.lr
        a /= b
        for p, s in zip(self.params, self._slices):
            p.data -= a[s].reshape(p.data.shape)
