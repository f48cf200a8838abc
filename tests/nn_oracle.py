"""Test-only oracle: the nn kernels as they were before their rewrite for speed.

``MaxPool2D`` now folds strided views with ``np.maximum`` and records one
small int per window, ``im2col`` pads without ``np.pad``, ``Conv2D`` can skip
its input gradient, and Grad-CAM runs the layers up to its target in
inference mode.  Every one of them must return the same bytes as the code
below, a verbatim copy of the earlier kernels, which the parity tests in
``tests/property/test_nn_kernel_parity.py`` compare them with.
"""

from __future__ import annotations

import numpy as np

from repro.nn import layers
from repro.nn.layers import Dropout, Layer, col2im


class MaxPool2D(Layer):
    """Max pooling with square window and equal stride over NCHW inputs."""

    def __init__(self, size: int = 2) -> None:
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.size = size
        self._mask: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(
                f"MaxPool2D size {s} must evenly divide spatial dims {h}x{w}"
            )
        # Reorder to (n, c, h//s, w//s, s, s) so each window is contiguous.
        blocks = x.reshape(n, c, h // s, s, w // s, s).transpose(0, 1, 2, 4, 3, 5)
        out = blocks.max(axis=(4, 5))
        if training:
            flat = (blocks == out[..., None, None]).reshape(
                n, c, h // s, w // s, s * s
            )
            # Break ties so exactly one element per window routes the gradient.
            first = flat.argmax(axis=-1)
            mask = np.zeros_like(flat, dtype=bool)
            np.put_along_axis(mask, first[..., None], True, axis=-1)
            self._mask = mask
            self._x_shape = x.shape
        else:
            self._mask = None
            self._x_shape = None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, c, h, w = self._x_shape
        s = self.size
        spread = self._mask * grad[..., None]
        spread = spread.reshape(n, c, h // s, w // s, s, s)
        return spread.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


def im2col(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """Unfold NCHW input into (N*OH*OW, C*kernel*kernel) patch rows.

    Returns the patch matrix along with the output spatial dims (OH, OW).
    """
    n, c, h, w = x.shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel} with stride {stride}, pad {pad} does not fit "
            f"input of spatial size {h}x{w}"
        )
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = padded[:, :, ky:y_end:stride, kx:x_end:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)
    return cols, out_h, out_w


class Conv2D(layers.Conv2D):
    """``Conv2D`` on the oracle ``im2col``, with the earlier backward."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.weight.shape[1]:
            raise ValueError(
                f"Conv2D expected (batch, {self.weight.shape[1]}, H, W), "
                f"got {x.shape}"
            )
        cols, out_h, out_w = im2col(x, self.kernel, self.stride, self.pad)
        out_channels = self.weight.shape[0]
        flat_w = self.weight.reshape(out_channels, -1)
        out = cols @ flat_w.T + self.bias
        out = out.reshape(x.shape[0], out_h, out_w, out_channels)
        if training:
            self._cols = cols
            self._x_shape = x.shape
        else:
            self._cols = None
            self._x_shape = None
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        out_channels = self.weight.shape[0]
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        self.grad_weight += (grad_flat.T @ self._cols).reshape(self.weight.shape)
        self.grad_bias += grad_flat.sum(axis=0)
        grad_cols = grad_flat @ self.weight.reshape(out_channels, -1)
        return col2im(grad_cols, self._x_shape, self.kernel, self.stride, self.pad)


def gradcam_forward(cam, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``GradCAM._forward`` with every non-Dropout layer in training mode."""
    activations = x
    cached: np.ndarray | None = None
    for i, layer in enumerate(cam.model.layers):
        training = not isinstance(layer, Dropout)
        activations = layer.forward(activations, training=training)
        if i == cam.target_layer:
            cached = activations
    if cached is None:  # pragma: no cover - guarded by constructor
        raise RuntimeError("target layer did not produce activations")
    return cached, activations
