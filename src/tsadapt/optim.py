"""Adam optimizer over engine tensors."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor
from .errors import ConfigurationError


class Adam:
    """Standard Adam: theta -= lr * mhat / (sqrt(vhat) + eps).

    lr = 0 leaves parameters bitwise unchanged while still counting a step.
    """

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params: list[Tensor] = list(params)
        if not math.isfinite(lr) or lr < 0:
            raise ConfigurationError(f"learning rate must be finite and >= 0, got {lr}")
        if any(p.grad is None for p in self.params):
            raise ConfigurationError("Adam needs requires_grad parameters")
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** self.t)
            vhat = v / (1.0 - b2 ** self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
