"""AdamW with decoupled weight decay and bias-corrected moments."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, Tensor

BETAS = (0.9, 0.999)  # the moments' decay rates
EPS = 1e-8


@dataclass
class AdamW:
    """Decoupled-weight-decay Adam over a named parameter list.

    Parameters with fewer than two dimensions (norm scales/shifts, biases,
    layer scales, affine mixer coefficients) are excluded from decay.
    Each `step` takes the learning rate, which the schedule sets.
    """

    params: list[tuple[str, Tensor]]
    weight_decay: float = 0.05
    step_count: int = field(default=0, init=False)

    def __post_init__(self):
        self._m = [np.zeros_like(p.data) for _, p in self.params]
        self._v = [np.zeros_like(p.data) for _, p in self.params]

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self, lr: float) -> None:
        b1, b2 = BETAS
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for i, (name, p) in enumerate(self.params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != param shape "
                                 f"{p.data.shape} for {name}")
            if self.weight_decay and p.ndim >= 2:
                p.data = (p.data * (1.0 - lr * self.weight_decay)).astype(np.float32)
            m = self._m[i]
            v = self._v[i]
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data = (p.data - lr * update).astype(np.float32)
