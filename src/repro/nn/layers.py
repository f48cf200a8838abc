"""Neural-network layers with explicit forward/backward passes.

All layers operate on float64 numpy arrays.  Convolutions use NCHW layout
(batch, channels, height, width) and are implemented with im2col so the heavy
lifting is one multiply of channel-major patches.  Each layer exposes:

- ``forward(x, training)`` — compute outputs; a training forward caches what
  backward needs, an inference forward clears those caches;
- ``clear_caches()`` — drop those caches; a :class:`~repro.nn.trainer.Trainer`
  fit ends with it, so a fitted network holds no forward caches;
- ``backward(grad)`` — gradient w.r.t. inputs, accumulating parameter grads;
- ``backward_params(grad)`` — the parameter gradients alone, for the first
  layer of a network, whose input gradient nobody reads;
- ``params()`` / ``grads()`` — parallel lists consumed by the optimizers.

``MaxPool2D`` works on the ``s * s`` strided views ``x[:, :, dy::s, dx::s]``,
one per window position: each step is one elementwise pass over a view,
with no transposed 6-D copy of the input and no per-element window mask.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import Initializer, glorot_uniform, he_normal, zeros

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "ReLU",
    "Flatten",
    "Dropout",
    "im2col",
    "col2im",
]


#: Attributes training forwards fill for backward to read.  They are derived
#: state: an inference forward, a pickle (guard snapshot, checkpoint,
#: deepcopy) and the end of every ``Trainer.fit`` leave them ``None``.
#: Every backward follows a fresh training forward that refills them, and
#: every backward reader but ``Dropout`` (which reads a missing mask as
#: inference) raises on ``None``, so nothing may clear them between a
#: training forward and its backward.
_FORWARD_CACHES = (
    "_cols", "_x_shape", "_mask", "_input", "_shape",
)


def _drop_forward_caches(state: dict) -> dict:
    """Set every forward cache in a layer's attribute dict to ``None``."""
    for key in _FORWARD_CACHES:
        if key in state:
            state[key] = None
    return state


class Layer:
    """Base class for all layers; parameter-free layers inherit the no-ops.

    Pickling keeps parameters, gradients and generators but drops forward
    caches.
    """

    def __getstate__(self) -> dict:
        return _drop_forward_caches(self.__dict__.copy())

    def clear_caches(self) -> None:
        """Release what the last training forward cached for backward."""
        _drop_forward_caches(self.__dict__)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad: np.ndarray) -> None:
        """Accumulate parameter gradients without computing the input's.

        The parameter gradients are bit-identical to :meth:`backward`'s.  A
        parameter-free layer has nothing to accumulate.
        """
        if self.params():
            self.backward(grad)

    def params(self) -> list[np.ndarray]:
        """Trainable parameter arrays (mutated in place by optimizers)."""
        return []

    def grads(self) -> list[np.ndarray]:
        """Gradient arrays parallel to :meth:`params`."""
        return []

    def zero_grad(self) -> None:
        """Reset accumulated gradients to zero."""
        for g in self.grads():
            g[...] = 0.0

    def state(self) -> dict[str, np.ndarray]:
        """Layer parameters by name, restorable with :meth:`load_state`."""
        return {f"param{i}": p for i, p in enumerate(self.params())}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state`."""
        for i, p in enumerate(self.params()):
            p[...] = state[f"param{i}"]

    def reseed(self, rng: np.random.Generator) -> None:
        """Point any internal randomness at ``rng`` (no-op by default)."""
        return None


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        weight_init: Initializer = glorot_uniform,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense layer dimensions must be positive")
        self.weight = weight_init((in_features, out_features), rng)
        self.bias = zeros((out_features,), rng)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.weight.shape[0]:
            raise ValueError(
                f"Dense expected (batch, {self.weight.shape[0]}), got {x.shape}"
            )
        self._input = x if training else None
        return x @ self.weight + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.backward_params(grad)
        return grad @ self.weight.T

    def backward_params(self, grad: np.ndarray) -> None:
        if self._input is None:
            raise RuntimeError("backward called before a training forward pass")
        self.grad_weight += self._input.T @ grad
        self.grad_bias += grad.sum(axis=0)

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


def im2col(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """Unfold NCHW input into (N*OH*OW, C*kernel*kernel) patch rows.

    Returns the transposed view of a channel-major patch matrix and (OH, OW).
    """
    n, c, h, w = x.shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel} with stride {stride}, pad {pad} does not fit "
            f"input of spatial size {h}x{w}"
        )
    if pad:
        padded = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad : pad + h, pad : pad + w] = x.transpose(1, 0, 2, 3)
    else:
        padded = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kernel, kernel, n, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            cols[:, ky, kx] = padded[:, :, ky:y_end:stride, kx:x_end:stride]
    return cols.reshape(c * kernel * kernel, -1).T, out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold patch rows (either memory order) into an NCHW gradient; inverse of :func:`im2col`."""
    n, c, h, w = x_shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += cols[:, :, ky, kx, :, :]
    return padded[:, :, pad : pad + h, pad : pad + w]


class Conv2D(Layer):
    """2-D convolution (cross-correlation) over NCHW inputs via im2col.

    The GEMMs read :func:`im2col`'s transposed view; several images read a
    row-major copy where BLAS sums in a layout-dependent order (one output
    channel: gemv; under 2048 output elements: OpenBLAS small-matrix kernels).
    Grad-CAM's sums depend on the output's ``(N, OH, OW, O)`` memory order.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator,
        stride: int = 1,
        pad: int = 0,
        weight_init: Initializer = he_normal,
    ) -> None:
        if min(in_channels, out_channels, kernel, stride) <= 0 or pad < 0:
            raise ValueError("Conv2D hyperparameters must be positive (pad >= 0)")
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.weight = weight_init((out_channels, in_channels, kernel, kernel), rng)
        self.bias = zeros((out_channels,), rng)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.weight.shape[1]:
            raise ValueError(
                f"Conv2D expected (batch, {self.weight.shape[1]}, H, W), "
                f"got {x.shape}"
            )
        cols, out_h, out_w = im2col(x, self.kernel, self.stride, self.pad)
        out_channels = self.weight.shape[0]
        if x.shape[0] > 1 and (out_channels == 1 or len(cols) * out_channels < 2048):
            cols = np.ascontiguousarray(cols)
        self._cols = cols if training else None
        self._x_shape = x.shape if training else None
        out = cols @ self.weight.reshape(out_channels, -1).T
        out += self.bias
        return out.reshape(x.shape[0], out_h, out_w, out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad_flat = self._accumulate(grad)
        grad_cols = grad_flat @ self.weight.reshape(self.weight.shape[0], -1)
        return col2im(grad_cols, self._x_shape, self.kernel, self.stride, self.pad)

    def backward_params(self, grad: np.ndarray) -> None:
        self._accumulate(grad)

    def _accumulate(self, grad: np.ndarray) -> np.ndarray:
        """Add this batch's parameter gradients; returns ``grad`` as patch rows."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        out_channels = self.weight.shape[0]
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        self.grad_weight += (grad_flat.T @ self._cols).reshape(self.weight.shape)
        self.grad_bias += grad_flat.sum(axis=0)
        return grad_flat

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class MaxPool2D(Layer):
    """Max pooling with square window and equal stride over NCHW inputs.

    The forward folds the window's ``s * s`` strided views together with
    ``np.maximum``.  A training forward records, per output, the first
    window position (row-major) holding the max as a small int array in
    ``_mask``; a window where nothing compares equal to its max (NaN)
    routes to position 0.  The backward sends ``grad`` to that position and
    ``grad * 0`` (a signed zero, or NaN for an infinite or NaN ``grad``) to
    the others.
    """

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
        views = [x[:, :, dy::s, dx::s] for dy in range(s) for dx in range(s)]
        out = views[0].copy()
        for view in views[1:]:
            np.maximum(out, view, out=out)
        if training:
            # Walk the positions backwards so the first one holding the max
            # is written last; NaN windows match nowhere and keep 0.
            first = np.zeros(out.shape, dtype=np.min_scalar_type(len(views) - 1))
            for k in range(len(views) - 1, -1, -1):
                np.copyto(first, k, where=views[k] == out)
            self._mask = first
            self._x_shape = x.shape
        else:
            self._mask = None
            self._x_shape = None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        s = self.size
        out = np.empty(self._x_shape, dtype=np.result_type(bool, grad))
        for k in range(s * s):
            dy, dx = divmod(k, s)
            np.multiply(self._mask == k, grad, out=out[:, :, dy::s, dx::s])
        return out


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad * self._mask


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask

    def reseed(self, rng: np.random.Generator) -> None:
        self._rng = rng
