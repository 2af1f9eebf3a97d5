"""Decoupled-weight-decay adaptive-moment optimizer.

Standard bias-corrected first/second moment updates; weight decay is
applied directly to the parameters (multiplicative shrink by lr * wd), not
folded into the gradients.  A non-finite gradient aborts the step naming
the offending parameter.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, NumericalError

__all__ = ["AdamW"]


class AdamW:
    def __init__(self, named_params: list[tuple[str, Tensor]],
                 lr: float = 6e-5, betas: tuple = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        if not (0 <= lr < np.inf and 0 <= weight_decay < np.inf and eps > 0):
            raise ConfigError(f"need finite lr, weight decay >= 0 and eps > 0, "
                              f"got {lr}, {weight_decay}, {eps}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got {betas}")
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for _, p in self.named_params]
        self.v = [np.zeros_like(p.data) for _, p in self.named_params]

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for i, (name, p) in enumerate(self.named_params):
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericalError(
                    f"non-finite gradient in parameter '{name}' at step {t}")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            if self.weight_decay:
                p.data = p.data * (1.0 - self.lr * self.weight_decay)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
