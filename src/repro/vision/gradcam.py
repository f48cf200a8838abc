"""Gradient-weighted Class Activation Mapping (Grad-CAM) for numpy CNNs.

The DDM baseline [5] combines a CNN with Grad-CAM: the class-discriminative
heatmap localizes the damaged region, and the heatmap mass is used to grade
severity.  This implementation works directly on
:class:`repro.nn.model.Sequential` models by replaying the forward pass,
in training mode past the last convolutional layer (so the caches backward
reads are populated) and in inference mode up to it, and backpropagating a
one-hot class gradient down to that layer.  Once the heatmaps are computed
those caches are released: nothing reads them again.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2D, Dropout
from repro.nn.model import Sequential

__all__ = ["GradCAM"]


class GradCAM:
    """Computes Grad-CAM heatmaps over a CNN's last conv layer.

    Parameters
    ----------
    model:
        The CNN; its input must be NCHW.  The heatmap is computed over the
        output feature maps of its last :class:`~repro.nn.layers.Conv2D`.
    """

    def __init__(self, model: Sequential) -> None:
        conv_indices = [
            i for i, layer in enumerate(model.layers) if isinstance(layer, Conv2D)
        ]
        if not conv_indices:
            raise ValueError("model contains no Conv2D layer for Grad-CAM")
        self.model = model
        self.target_layer = conv_indices[-1]

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One instrumented forward pass; returns (target activations, logits).

        Layers past the target run in training mode, so they cache what
        backward needs — except Dropout, which must stay in inference mode
        or the heatmaps (and any prediction derived from them) become
        stochastic.  Backward never reaches the target or the layers before
        it, so they run in inference mode and build no caches.  Of the
        layers in training mode, only Dropout computes different *values*
        with the flag, and it is excluded, so the logits are bit-identical
        to an inference-mode forward.
        """
        activations = x
        cached: np.ndarray | None = None
        for i, layer in enumerate(self.model.layers):
            training = i > self.target_layer and not isinstance(layer, Dropout)
            activations = layer.forward(activations, training=training)
            if i == self.target_layer:
                cached = activations
        if cached is None:  # pragma: no cover - guarded by constructor
            raise RuntimeError("target layer did not produce activations")
        return cached, activations

    def _cam(
        self, cached: np.ndarray, logits: np.ndarray, class_idx: np.ndarray
    ) -> np.ndarray:
        """Heatmaps from an already-populated forward pass.

        Backward only reads layer caches (it never consumes them), so this
        can run repeatedly — once per class vector — off a single forward.
        """
        # Backpropagate d(logit[class]) / d(feature maps) to the target layer.
        grad = np.zeros_like(logits)
        grad[np.arange(len(class_idx)), class_idx] = 1.0
        self.model.zero_grad()
        for layer in reversed(self.model.layers[self.target_layer + 1 :]):
            grad = layer.backward(grad)

        # Grad-CAM: weight each feature map by its average gradient, sum, ReLU.
        # The gradient arrives in the conv output's NHWC memory; the mean
        # adds over a C-ordered copy, in NCHW order.
        weights = np.ascontiguousarray(grad).mean(axis=(2, 3))  # (n, channels)
        cam = np.einsum("nc,nchw->nhw", weights, cached)
        np.clip(cam, 0.0, None, out=cam)
        maxes = cam.max(axis=(1, 2), keepdims=True)
        safe = np.where(maxes > 0, maxes, 1.0)
        return cam / safe

    def _check_classes(
        self, x: np.ndarray, class_idx: np.ndarray
    ) -> np.ndarray:
        class_idx = np.asarray(class_idx, dtype=np.int64).ravel()
        if class_idx.shape[0] != x.shape[0]:
            raise ValueError("class_idx must have one entry per input sample")
        return class_idx

    def heatmaps(self, x: np.ndarray, class_idx: np.ndarray) -> np.ndarray:
        """Grad-CAM heatmaps for a batch.

        Parameters
        ----------
        x:
            NCHW input batch.
        class_idx:
            Per-sample class whose evidence to localize, shape ``(n,)``.

        Returns
        -------
        Heatmaps of shape ``(n, fh, fw)`` (the target layer's spatial size),
        ReLU-ed and max-normalized to [0, 1] per sample.
        """
        class_idx = self._check_classes(x, class_idx)
        cached, logits = self._forward(x)
        try:
            if logits.ndim != 2 or np.any(class_idx >= logits.shape[1]):
                raise ValueError("class_idx out of range for the model's outputs")
            return self._cam(cached, logits, class_idx)
        finally:
            self.model.clear_caches()

    def heatmap_masses(
        self, x: np.ndarray, class_rows: list[np.ndarray]
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Heatmap masses for several class vectors off one shared forward.

        A heatmap's mass is its mean intensity, the fraction of image area
        the damage evidence covers, by which DDM grades severity.  The
        forward pass runs once and backpropagates once per vector (the
        masses are bit-identical to one :meth:`heatmaps` call each).  Also
        returns the logits, so callers needing class probabilities can
        reuse the same pass instead of running the model a third time.
        """
        rows = [self._check_classes(x, row) for row in class_rows]
        cached, logits = self._forward(x)
        try:
            if logits.ndim != 2 or any(
                np.any(row >= logits.shape[1]) for row in rows
            ):
                raise ValueError("class_idx out of range for the model's outputs")
            masses = [
                self._cam(cached, logits, row).mean(axis=(1, 2)) for row in rows
            ]
        finally:
            self.model.clear_caches()
        return masses, logits
