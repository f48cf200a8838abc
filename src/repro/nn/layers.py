"""Neural-network layers with explicit forward/backward passes.

All layers operate on float64 numpy arrays.  Convolutions use NCHW layout
(batch, channels, height, width) and are implemented with im2col so the heavy
lifting is a single matrix multiply.  Each layer exposes:

- ``forward(x, training)`` — compute outputs, caching what backward needs;
- ``backward(grad)`` — gradient w.r.t. inputs, accumulating parameter grads;
- ``params()`` / ``grads()`` — parallel lists consumed by the optimizers.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import Initializer, glorot_uniform, he_normal, zeros

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAveragePool",
    "Sigmoid",
    "Tanh",
    "ReLU",
    "Flatten",
    "Dropout",
    "BatchNorm",
    "Softmax",
    "FusedConvReLU",
    "FusedConvReLUPool",
    "fuse_layers",
    "unfuse_layers",
    "im2col",
    "col2im",
]


#: Attributes forward passes fill for backward to read.  They are derived
#: state: a pickle (guard snapshot, checkpoint, deepcopy) carries them as
#: ``None``, every backward reader raises on ``None``, and every backward
#: follows a fresh training forward that refills them.
_FORWARD_CACHES = (
    "_cols", "_x_shape", "_mask", "_routing", "_act_shape",
    "_input", "_cache", "_output", "_shape",
)


class Layer:
    """Base class for all layers; parameter-free layers inherit the no-ops.

    Pickling keeps parameters, gradients, running statistics and generators
    but drops forward caches and fused-kernel scratch buffers.
    """

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if "_scratch" in state:
            state["_scratch"] = {}
        for key in _FORWARD_CACHES:
            if key in state:
                state[key] = None
        return state

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

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
        """Serializable layer state (parameters + running statistics)."""
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
        if self._input is None:
            raise RuntimeError("backward called before a training forward pass")
        self.grad_weight += self._input.T @ grad
        self.grad_bias += grad.sum(axis=0)
        return grad @ self.weight.T

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


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


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold patch rows back into an NCHW gradient (inverse of :func:`im2col`)."""
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
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


class Conv2D(Layer):
    """2-D convolution (cross-correlation) over NCHW inputs via im2col."""

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

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


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


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        if training:
            self._mask = mask
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
        if training:
            self._shape = x.shape
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


class BatchNorm(Layer):
    """Batch normalization over the feature axis of 2-D inputs.

    For 4-D (NCHW) inputs, statistics are computed per channel over the
    batch and spatial axes.
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5):
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.gamma = np.ones(num_features, dtype=np.float64)
        self.beta = np.zeros(num_features, dtype=np.float64)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self.momentum = momentum
        self.eps = eps
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._was_4d = False

    def _to_2d(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 2:
            self._was_4d = False
            return x
        if x.ndim == 4:
            self._was_4d = True
            self._shape4 = x.shape
            return x.transpose(0, 2, 3, 1).reshape(-1, x.shape[1])
        raise ValueError(f"BatchNorm supports 2-D or 4-D inputs, got {x.ndim}-D")

    def _from_2d(self, x: np.ndarray) -> np.ndarray:
        if not self._was_4d:
            return x
        n, c, h, w = self._shape4
        return x.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        flat = self._to_2d(x)
        if training:
            mean = flat.mean(axis=0)
            var = flat.var(axis=0)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
            std = np.sqrt(var + self.eps)
            normed = (flat - mean) / std
            self._cache = (normed, std, flat - mean)
        else:
            std = np.sqrt(self.running_var + self.eps)
            normed = (flat - self.running_mean) / std
            self._cache = None
        return self._from_2d(normed * self.gamma + self.beta)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        grad_flat = self._to_2d(grad)
        normed, std, centered = self._cache
        n = grad_flat.shape[0]
        self.grad_gamma += (grad_flat * normed).sum(axis=0)
        self.grad_beta += grad_flat.sum(axis=0)
        gxn = grad_flat * self.gamma
        grad_in = (
            gxn - gxn.mean(axis=0) - normed * (gxn * normed).mean(axis=0)
        ) / std
        del n, centered
        return self._from_2d(grad_in)

    def params(self) -> list[np.ndarray]:
        return [self.gamma, self.beta]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_gamma, self.grad_beta]

    def state(self) -> dict[str, np.ndarray]:
        return {
            "gamma": self.gamma,
            "beta": self.beta,
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        self.gamma[...] = state["gamma"]
        self.beta[...] = state["beta"]
        self.running_mean[...] = state["running_mean"]
        self.running_var[...] = state["running_var"]


class Softmax(Layer):
    """Numerically stable softmax over the last axis.

    Typically combined with cross-entropy via the fused loss in
    :mod:`repro.nn.losses`; keep this layer out of the model when using
    :class:`~repro.nn.losses.SoftmaxCrossEntropy`.
    """

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=-1, keepdims=True)
        if training:
            self._output = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before a training forward pass")
        s = self._output
        dot = (grad * s).sum(axis=-1, keepdims=True)
        return s * (grad - dot)


class AvgPool2D(Layer):
    """Average pooling with square window and equal stride over NCHW inputs."""

    def __init__(self, size: int = 2) -> None:
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.size = size
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(
                f"AvgPool2D size {s} must evenly divide spatial dims {h}x{w}"
            )
        if training:
            self._x_shape = x.shape
        blocks = x.reshape(n, c, h // s, s, w // s, s)
        return blocks.mean(axis=(3, 5))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, c, h, w = self._x_shape
        s = self.size
        spread = np.repeat(np.repeat(grad, s, axis=2), s, axis=3)
        return spread / (s * s)


class GlobalAveragePool(Layer):
    """Collapse NCHW feature maps to (N, C) by spatial averaging."""

    def __init__(self) -> None:
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"expected NCHW input, got {x.ndim}-D")
        if training:
            self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, c, h, w = self._x_shape
        return np.broadcast_to(
            grad[:, :, None, None] / (h * w), (n, c, h, w)
        ).copy()


class Sigmoid(Layer):
    """Logistic activation."""

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
        if training:
            self._output = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad * self._output * (1.0 - self._output)


class Tanh(Layer):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.tanh(x)
        if training:
            self._output = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad * (1.0 - self._output**2)


class _FusedConvBase(Layer):
    """Shared plumbing for fused conv blocks.

    A fused block *wraps* the original :class:`Conv2D` instance rather than
    copying its parameters, so weight/bias/grad arrays stay shared with any
    optimizer that captured them before fusion, and :func:`unfuse_layers`
    can hand the untouched layer objects back.

    The im2col patch matrix and the col2im gradient accumulator are written
    into preallocated scratch buffers reused across minibatches and epochs
    (the patch layout is built directly in ``(n, oh, ow, c, k, k)`` order,
    skipping the transpose-copy the reference :func:`im2col` pays).  Every
    arithmetic op matches the layer-by-layer chain operand for operand, so
    the fused path is bit-identical to running the separate layers.

    Scratch and caches are transient: :meth:`Layer.__getstate__` drops
    them on pickling, so guard snapshots and checkpoints stay lean.
    """

    def __init__(self, conv: Conv2D) -> None:
        if type(conv) is not Conv2D:
            raise TypeError(
                f"fused blocks wrap a plain Conv2D, got {type(conv).__name__}"
            )
        self.conv = conv
        # The wrapped layer's backward cache is stale the moment it is
        # fused over — drop it so snapshots/checkpoints of fused models do
        # not carry the last pre-fusion minibatch around forever.
        conv._cols = None
        conv._x_shape = None
        self._scratch: dict[str, np.ndarray] = {}
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def params(self) -> list[np.ndarray]:
        return self.conv.params()

    def grads(self) -> list[np.ndarray]:
        return self.conv.grads()

    def _buf(
        self, name: str, shape: tuple[int, ...], dtype, zeroed: bool = False
    ) -> np.ndarray:
        buf = self._scratch.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            alloc = np.zeros if zeroed else np.empty
            buf = alloc(shape, dtype=dtype)
            self._scratch[name] = buf
        return buf

    def _conv_forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """im2col + matmul; returns (patch matrix, NCHW conv output)."""
        conv = self.conv
        if x.ndim != 4 or x.shape[1] != conv.weight.shape[1]:
            raise ValueError(
                f"Conv2D expected (batch, {conv.weight.shape[1]}, H, W), "
                f"got {x.shape}"
            )
        k, s, p = conv.kernel, conv.stride, conv.pad
        n, c, h, w = x.shape
        out_h = (h + 2 * p - k) // s + 1
        out_w = (w + 2 * p - k) // s + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"kernel {k} with stride {s}, pad {p} does not fit "
                f"input of spatial size {h}x{w}"
            )
        if p:
            # Borders are zeroed once at allocation and never written after,
            # so refilling only the interior keeps the zero padding intact.
            padded = self._buf("pad", (n, c, h + 2 * p, w + 2 * p), x.dtype,
                               zeroed=True)
            padded[:, :, p:p + h, p:p + w] = x
        else:
            padded = x
        # The patch matrix holds exact element copies of the padded input,
        # so the gather strategy is free to differ from :func:`im2col` as
        # long as the same values land in the same positions — the result
        # is bit-identical either way.  Wide patches (c*k*k large) gather
        # fastest in ONE strided pass: a zero-copy sliding-window view of
        # ``padded``, transposed to patch-row order and written straight
        # into reusable scratch (half of im2col's memory traffic).  Narrow
        # patches (e.g. 3-channel input blocks) have too little contiguous
        # run per window for that to pay off, so they keep im2col's
        # two-pass pattern, just into preallocated scratch.
        cols = self._buf("cols", (n * out_h * out_w, c * k * k), x.dtype)
        cols6 = cols.reshape(n, out_h, out_w, c, k, k)
        if c * k * k >= 64:
            sn, sc, sh, sw = padded.strides
            windows = np.lib.stride_tricks.as_strided(
                padded,
                shape=(n, c, k, k, out_h, out_w),
                strides=(sn, sc, sh, sw, sh * s, sw * s),
                writeable=False,
            )
            np.copyto(cols6, windows.transpose(0, 4, 5, 1, 2, 3))
        else:
            patches = self._buf("patches", (n, c, k, k, out_h, out_w), x.dtype)
            for ky in range(k):
                y_end = ky + s * out_h
                for kx in range(k):
                    x_end = kx + s * out_w
                    patches[:, :, ky, kx, :, :] = padded[
                        :, :, ky:y_end:s, kx:x_end:s
                    ]
            np.copyto(cols6, patches.transpose(0, 4, 5, 1, 2, 3))
        out_channels = conv.weight.shape[0]
        flat_w = conv.weight.reshape(out_channels, -1)
        out = cols @ flat_w.T + conv.bias
        out = out.reshape(n, out_h, out_w, out_channels)
        return cols, out.transpose(0, 3, 1, 2)

    def _conv_backward(self, g: np.ndarray) -> np.ndarray:
        """Parameter grads + input grad from the post-activation grad ``g``."""
        conv = self.conv
        n, c, h, w = self._x_shape
        k, s, p = conv.kernel, conv.stride, conv.pad
        out_channels = conv.weight.shape[0]
        grad_flat = g.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        conv.grad_weight += (grad_flat.T @ self._cols).reshape(conv.weight.shape)
        conv.grad_bias += grad_flat.sum(axis=0)
        grad_cols = grad_flat @ conv.weight.reshape(out_channels, -1)
        out_h = (h + 2 * p - k) // s + 1
        out_w = (w + 2 * p - k) // s + 1
        gpad = self._buf("gpad", (n, c, h + 2 * p, w + 2 * p), grad_cols.dtype)
        gpad[...] = 0.0
        # Identical accumulation order to :func:`col2im`.
        rcols = grad_cols.reshape(n, out_h, out_w, c, k, k).transpose(0, 3, 4, 5, 1, 2)
        for ky in range(k):
            y_end = ky + s * out_h
            for kx in range(k):
                x_end = kx + s * out_w
                gpad[:, :, ky:y_end:s, kx:x_end:s] += rcols[:, :, ky, kx, :, :]
        if p == 0:
            return gpad
        return gpad[:, :, p:-p, p:-p]


class FusedConvReLU(_FusedConvBase):
    """Single-pass ``Conv2D -> ReLU`` (forward and backward)."""

    def __init__(self, conv: Conv2D, relu: ReLU | None = None) -> None:
        super().__init__(conv)
        self.relu = relu if relu is not None else ReLU()
        self.relu._mask = None
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        cols, conv_out = self._conv_forward(x)
        mask = conv_out > 0
        out = conv_out * mask
        if training:
            self._cols = cols
            self._x_shape = x.shape
            self._mask = mask
        else:
            self._cols = None
            self._x_shape = None
            self._mask = None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None or self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return self._conv_backward(grad * self._mask)


class FusedConvReLUPool(_FusedConvBase):
    """Single-pass ``Conv2D -> ReLU -> MaxPool2D``.

    Backward routes the pooled gradient through one combined boolean mask
    (``pool-argmax AND relu``) instead of two sequential mask multiplies;
    masks are 0/1 selections, so the composition is exact.
    """

    def __init__(
        self,
        conv: Conv2D,
        pool: MaxPool2D | None = None,
        relu: ReLU | None = None,
    ) -> None:
        super().__init__(conv)
        self.relu = relu if relu is not None else ReLU()
        self.pool = pool if pool is not None else MaxPool2D()
        if type(self.pool) is not MaxPool2D:
            raise TypeError(
                f"fused blocks pool with MaxPool2D, got {type(self.pool).__name__}"
            )
        self.relu._mask = None
        self.pool._mask = None
        self.pool._x_shape = None
        self._routing: np.ndarray | None = None
        self._act_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        cols, conv_out = self._conv_forward(x)
        relu_mask = conv_out > 0
        act = conv_out * relu_mask
        n, c, h, w = act.shape
        s = self.pool.size
        if h % s or w % s:
            raise ValueError(
                f"MaxPool2D size {s} must evenly divide spatial dims {h}x{w}"
            )
        blocks = act.reshape(n, c, h // s, s, w // s, s).transpose(0, 1, 2, 4, 3, 5)
        out = blocks.max(axis=(4, 5))
        if training:
            flat = (blocks == out[..., None, None]).reshape(
                n, c, h // s, w // s, s * s
            )
            # Break ties so exactly one element per window routes the gradient.
            first = flat.argmax(axis=-1)
            pool_mask = np.zeros_like(flat, dtype=bool)
            np.put_along_axis(pool_mask, first[..., None], True, axis=-1)
            relu_windows = relu_mask.reshape(
                n, c, h // s, s, w // s, s
            ).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // s, w // s, s * s)
            self._routing = pool_mask & relu_windows
            self._cols = cols
            self._x_shape = x.shape
            self._act_shape = act.shape
        else:
            self._cols = None
            self._x_shape = None
            self._routing = None
            self._act_shape = None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None or self._routing is None:
            raise RuntimeError("backward called before a training forward pass")
        n, c, h, w = self._act_shape
        s = self.pool.size
        spread = self._routing * grad[..., None]
        spread = spread.reshape(n, c, h // s, w // s, s, s)
        g = spread.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        return self._conv_backward(g)


def fuse_layers(layers: list[Layer], keep_last_conv: bool = False) -> list[Layer]:
    """Collapse ``Conv2D -> ReLU [-> MaxPool2D]`` runs into fused blocks.

    Only exact base-class instances fuse (subclasses may override behavior).
    ``keep_last_conv`` leaves the final :class:`Conv2D` of the stack — and
    its following layers — untouched, preserving per-layer access to its
    pre-activation output (Grad-CAM hooks the last conv by index).
    Layer instances are shared, never copied, so optimizer parameter lists
    captured before fusing remain valid.
    """
    layers = list(layers)
    protected = -1
    if keep_last_conv:
        for i, layer in enumerate(layers):
            if type(layer) is Conv2D:
                protected = i
    fused: list[Layer] = []
    i = 0
    while i < len(layers):
        layer = layers[i]
        nxt = layers[i + 1] if i + 1 < len(layers) else None
        if type(layer) is Conv2D and i != protected and type(nxt) is ReLU:
            after = layers[i + 2] if i + 2 < len(layers) else None
            if type(after) is MaxPool2D:
                fused.append(FusedConvReLUPool(layer, pool=after, relu=nxt))
                i += 3
            else:
                fused.append(FusedConvReLU(layer, relu=nxt))
                i += 2
        else:
            fused.append(layer)
            i += 1
    return fused


def unfuse_layers(layers: list[Layer]) -> list[Layer]:
    """Expand fused blocks back into the original layer instances."""
    out: list[Layer] = []
    for layer in layers:
        if isinstance(layer, FusedConvReLUPool):
            out += [layer.conv, layer.relu, layer.pool]
        elif isinstance(layer, FusedConvReLU):
            out += [layer.conv, layer.relu]
        else:
            out.append(layer)
    return out
