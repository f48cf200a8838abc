"""Chunked conv GEMMs against the single-GEMM conv, byte for byte.

A batch holding one and a half ``_FOLD_CHUNK_BYTES`` of patch rows or more
runs its forward GEMM and its input-gradient GEMM a chunk of images at a
time (``layers._chunk_bounds``).  ``_SingleGemmConv2D`` below is a
verbatim copy of the conv before that change: one ``im2col``, one forward
GEMM, one input-gradient GEMM, one fold of the ready row matrix
(``test_nn_kernel_parity.py`` pins ``im2col`` and that fold).  Every
output, cached patch view and gradient must have its bytes and strides.
CI runs this module with BLAS pinned to one thread as well as with its
default, and on OpenBLAS's Haswell kernels (``OPENBLAS_CORETYPE``) with
one and two threads: whether a chunk's rows keep their bytes depends on
the kernel OpenBLAS picks for the CPU.
"""

import numpy as np
import pytest

from repro.nn import layers
from repro.nn.layers import Conv2D, col2im, im2col

from tests.property.test_nn_kernel_parity import _EXPERT_CONVS, _FAST_CONVS, same_bytes

_BATCHES = [1, 2, 5, 12, 15, 24, 32, 33, 35, 60, 120]
#: Expert geometries off the experts' (stride 1, pad 1): (c_in, c_out, side,
#: stride, pad).  Their images have 256 or 1024 output rows, as chunking
#: requires.
_OTHER_STEPS = [(4, 4, 34, 2, 0), (3, 4, 32, 2, 1), (4, 8, 18, 1, 0)]


class _SingleGemmConv2D(Conv2D):
    """``Conv2D`` with one GEMM per batch in each direction, all three kept here."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        cols, out_h, out_w = im2col(x, self.kernel, self.stride, self.pad)
        out_channels = self.weight.shape[0]
        if x.shape[0] > 1 and (out_channels == 1 or len(cols) * out_channels < 2048):
            cols = np.ascontiguousarray(cols)
        self._cols = cols if training else None
        self._x_shape = x.shape if training else None
        out = cols @ self.weight.reshape(out_channels, -1).T
        rows = out.reshape(x.shape[0], -1)
        rows += np.tile(self.bias, out_h * out_w)
        return out.reshape(x.shape[0], out_h, out_w, out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad_flat = self._accumulate(grad)
        grad_cols = grad_flat @ self.weight.reshape(self.weight.shape[0], -1)
        return col2im(grad_cols, self._x_shape, self.kernel, self.stride, self.pad)

    def _accumulate(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        out_channels = self.weight.shape[0]
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        self.grad_weight += (grad_flat.T @ self._cols).reshape(self.weight.shape)
        self.grad_bias += grad_flat.sum(axis=0)
        return grad_flat


def _bounds(n: int, c_in: int, c_out: int, side: int, stride: int = 1, pad: int = 1):
    out = (side + 2 * pad - 3) // stride + 1
    return layers._chunk_bounds(n, out * out, c_in * 9, c_out, 8)


def _nhwc(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _assert_same_conv(c_in, c_out, side, n, stride=1, pad=1):
    rng = np.random.default_rng(1000 * c_out + 10 * side + n)
    x = rng.normal(size=(n, c_in, side, side))
    bias = rng.normal(size=c_out)

    def conv(cls):
        layer = cls(c_in, c_out, 3, np.random.default_rng(n), stride=stride, pad=pad)
        layer.bias[...] = bias
        return layer

    new, params_only, old = conv(Conv2D), conv(Conv2D), conv(_SingleGemmConv2D)
    a, b = new.forward(x), old.forward(x)
    assert same_bytes(a, b) and a.strides == b.strides
    assert new._cols is None and new._x_shape is None
    a, b = new.forward(x, training=True), old.forward(x, training=True)
    assert same_bytes(a, b) and a.strides == b.strides
    assert same_bytes(new._cols, old._cols) and new._cols.strides == old._cols.strides
    params_only.forward(x, training=True)
    # The gradient a ReLU or max-pool passes back to a conv is NHWC.
    grad = _nhwc(rng.normal(size=b.shape))
    a, b = new.backward(grad), old.backward(grad)
    assert same_bytes(a, b) and a.strides == b.strides
    params_only.backward_params(grad)
    for layer in (new, params_only):
        assert same_bytes(layer.grad_weight, old.grad_weight)
        assert same_bytes(layer.grad_bias, old.grad_bias)


class TestChunkedConvParity:
    @pytest.mark.parametrize("n", _BATCHES)
    @pytest.mark.parametrize("c_in, c_out, side", _EXPERT_CONVS + _FAST_CONVS)
    def test_expert_convs(self, c_in, c_out, side, n):
        _assert_same_conv(c_in, c_out, side, n)

    @pytest.mark.parametrize("n", [33, 60])
    @pytest.mark.parametrize("c_in, c_out, side, stride, pad", _OTHER_STEPS)
    def test_other_strides_and_pads(self, c_in, c_out, side, stride, pad, n):
        assert _bounds(n, c_in, c_out, side, stride, pad) is not None
        _assert_same_conv(c_in, c_out, side, n, stride, pad)

    @pytest.mark.parametrize("n", [33, 60])
    @pytest.mark.parametrize(
        "c_in, c_out, side, stride, pad", [(4, 4, 32, 2, 0), (4, 8, 16, 1, 0)]
    )
    def test_images_off_the_row_grid_stay_one_gemm(
        self, c_in, c_out, side, stride, pad, n
    ):
        """15x15 and 14x14 outputs: chunked, OpenBLAS's Haswell kernels
        change their bytes (forward at one thread, input gradient at two)."""
        assert _bounds(n, c_in, c_out, side, stride, pad) is None
        _assert_same_conv(c_in, c_out, side, n, stride, pad)

    def test_sixteen_channels_keep_chunks_above_the_small_kernels(self):
        """Five 6 -> 16 channel 32x32 images hold 2.1 MiB of patches.

        Three chunks would leave one image of 884,736 multiply-adds, which
        OpenBLAS sums with a small-matrix kernel; the batch splits in two.
        """
        assert _bounds(5, 6, 16, 32) == [0, 2, 5]
        _assert_same_conv(6, 16, 32, 5)

    def test_the_batches_above_exercise_the_chunks(self):
        """Every geometry chunks some batch, 32x32 layers in five or more.

        Splitting off whole 1 MiB chunks would leave a last chunk of one
        image for some batch at every 16-or-more-channel geometry, where
        that changes bytes.
        """
        for c_in, c_out, side in _EXPERT_CONVS + _FAST_CONVS:
            plans = [_bounds(n, c_in, c_out, side) for n in _BATCHES]
            assert plans[0] is None and plans[-1] is not None
            step = layers._FOLD_CHUNK_BYTES // (side * side * c_in * 9 * 8)
            if c_out >= 16:
                assert any(n > step and n % step == 1 for n in _BATCHES)
            if side == 32:
                assert max(len(p) - 1 for p in plans if p) >= 5

    def test_patches_fill_one_buffer_in_place(self):
        """A chunked training forward caches the view of one batch buffer."""
        layer = Conv2D(4, 4, 3, np.random.default_rng(0), pad=1)
        layer.forward(np.zeros((24, 4, 32, 32)), training=True)
        assert _bounds(24, 4, 4, 32) is not None
        assert layer._cols.T.flags.c_contiguous and layer._cols.shape == (24 * 1024, 36)


class TestChunkBounds:
    @pytest.mark.parametrize("n", _BATCHES)
    @pytest.mark.parametrize("c_in, c_out, side", _EXPERT_CONVS + _FAST_CONVS)
    def test_balanced_about_one_budget_and_above_the_small_kernels(
        self, c_in, c_out, side, n
    ):
        bounds = _bounds(n, c_in, c_out, side)
        image_bytes = side * side * c_in * 9 * 8
        if bounds is None:
            assert n * image_bytes < 1.5 * layers._FOLD_CHUNK_BYTES
            return
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n and len(sizes) >= 2
        assert sizes.max() - sizes.min() <= 1
        assert sizes.mean() * image_bytes <= layers._FOLD_CHUNK_BYTES
        if c_out >= 16:
            assert sizes.min() * image_bytes // 8 * c_out > 10**6

    def test_one_chunk_where_no_rule_is_shown(self):
        # The fast experts' 5-image votes hold 1.1 and 1.5 MiB of patches.
        assert layers._chunk_bounds(5, 1024, 27, 4, 8) is None
        assert layers._chunk_bounds(5, 1024, 36, 4, 8) is None
        assert layers._chunk_bounds(12, 1024, 27, 4, 8) == [0, 4, 8, 12]
        assert layers._chunk_bounds(12, 1024, 27, 1, 8) is None  # gemv
        assert layers._chunk_bounds(120, 1024, 198, 4, 8) is None  # too wide
        assert layers._chunk_bounds(120, 1024, 189, 4, 8) is not None
        # 2.03 MiB in three chunks would leave one image of 851,968
        # multiply-adds at 16 channels: two chunks instead.
        assert layers._chunk_bounds(5, 1024, 52, 8, 8) == [0, 1, 3, 5]
        assert layers._chunk_bounds(5, 1024, 52, 16, 8) == [0, 2, 5]
