"""Loss functions with fused gradients for the numpy NN substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["Loss", "SoftmaxCrossEntropy", "softmax"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class Loss:
    """Base class: ``forward`` returns the scalar loss, ``backward`` dL/dlogits."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross-entropy fused for a stable, simple gradient.

    Accepts integer class labels or one-hot/dense target distributions, so it
    also supports the soft crowd labels produced by CQC during retraining.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def _dense_targets(self, targets: np.ndarray, n_classes: int) -> np.ndarray:
        targets = np.asarray(targets)
        if targets.ndim == 1:
            if targets.min(initial=0) < 0 or targets.max(initial=0) >= n_classes:
                raise ValueError("integer targets out of range for logits")
            dense = np.zeros((targets.size, n_classes), dtype=np.float64)
            dense[np.arange(targets.size), targets.astype(np.int64)] = 1.0
        elif targets.ndim == 2 and targets.shape[1] == n_classes:
            dense = targets.astype(np.float64)
            sums = dense.sum(axis=1, keepdims=True)
            if np.any(sums <= 0):
                raise ValueError("target distributions must have positive mass")
            dense = dense / sums
        else:
            raise ValueError(
                f"targets must be (n,) ints or (n, {n_classes}) distributions, "
                f"got shape {targets.shape}"
            )
        return dense

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        if predictions.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {predictions.shape}")
        probs = softmax(predictions)
        dense = self._dense_targets(targets, predictions.shape[1])
        self._probs = probs
        self._targets = dense
        log_probs = np.log(np.clip(probs, 1e-12, None))
        return float(-(dense * log_probs).sum(axis=1).mean())

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        batch = self._probs.shape[0]
        return (self._probs - self._targets) / batch
