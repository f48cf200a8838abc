"""Optimizers that update parameter arrays in place."""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer over parallel (params, grads) lists."""

    def __init__(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError("params and grads must be parallel lists")
        for p, g in zip(params, grads):
            if p.shape != g.shape:
                raise ValueError(
                    f"param/grad shape mismatch: {p.shape} vs {g.shape}"
                )
        self.params = params
        self.grads = grads

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Reset all gradients to zero."""
        for g in self.grads:
            g[...] = 0.0


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(
        self,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, grads)
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(self.params, self.grads, self._m, self._v):
            grad = g + self.weight_decay * p
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad**2
            m_hat = m / bc1
            v_hat = v / bc2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
