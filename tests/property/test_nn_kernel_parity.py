"""Property tests: the nn kernels against their earlier versions, byte for byte.

``tests/nn_oracle.py`` keeps a verbatim copy of the max-pool, ``im2col``,
``Conv2D.backward`` and ``GradCAM._forward`` that the current kernels
replaced.  The rewrite changed memory access and skipped work nobody
reads, never the arithmetic, so every result here must have the same bytes
(``tobytes()`` equality, which also tells ``-0.0`` from ``0.0`` and checks
NaN positions), including on ties, NaN, ``±inf`` and signed zeros.  The
one exception is the sign of a max-pool output whose window ties ``-0.0``
with ``0.0`` (see :func:`zero_ties`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.vgg import VGGModel
from repro.nn import layers
from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    col2im,
    im2col,
)
from repro.nn.model import Sequential
from repro.vision.gradcam import GradCAM

from tests import nn_oracle

# NaN and infinities make numpy warn on the same operations on both sides.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

_SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])


def awkward(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Half-integer values (many ties) with some specials mixed in."""
    x = np.round(rng.normal(0, 1.5, size=shape) * 2) / 2
    special = rng.random(shape) < 0.3
    x[special] = rng.choice(_SPECIALS, size=int(special.sum()))
    return x


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def zero_ties(x: np.ndarray, s: int) -> np.ndarray:
    """Pool outputs whose window maximum is a tie of ``-0.0`` with ``0.0``.

    The sign of such a maximum is the one thing the old kernel left to
    numpy: ``max`` over a window numpy reduces as one contiguous run (a
    window spanning whole rows, e.g. ``s = 3`` on a width-3 input) follows
    SIMD lane order.  The new kernel follows ``np.maximum``'s operand order.
    """
    n, c, h, w = x.shape
    blocks = x.reshape(n, c, h // s, s, w // s, s).transpose(0, 1, 2, 4, 3, 5)
    zeros = blocks == 0
    negative = np.signbit(blocks)
    return (
        (blocks.max(axis=(4, 5)) == 0)
        & (zeros & negative).any(axis=(4, 5))
        & (zeros & ~negative).any(axis=(4, 5))
    )


class TestMaxPoolParity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.integers(1, 3),  # batch
        st.integers(1, 3),  # channels
        st.integers(1, 4),  # output height
        st.integers(1, 4),  # output width
    )
    def test_forward_and_backward(self, seed, s, n, c, oh, ow):
        rng = np.random.default_rng(seed)
        x = awkward(rng, (n, c, oh * s, ow * s))
        grad = awkward(rng, (n, c, oh, ow))
        new, old = MaxPool2D(s), nn_oracle.MaxPool2D(s)
        ties = zero_ties(x, s)
        for training in (False, True):
            a, b = new.forward(x, training), old.forward(x, training)
            assert np.array_equal(a, b, equal_nan=True)
            assert same_bytes(np.where(ties, 0.0, a), np.where(ties, 0.0, b))
        # The routing ignores the sign of zero, so backward is exact throughout.
        assert same_bytes(new.backward(grad), old.backward(grad))


class TestConvParity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),  # batch
        st.integers(1, 3),  # in channels
        st.integers(1, 3),  # out channels
        st.integers(1, 7),  # height
        st.integers(1, 7),  # width
        st.integers(1, 3),  # kernel
        st.sampled_from([1, 2]),  # stride
        st.sampled_from([0, 1, 2]),  # pad
    )
    def test_im2col_and_gradients(self, seed, n, c_in, c_out, h, w, k, stride, pad):
        if k > min(h, w) + 2 * pad:
            return
        rng = np.random.default_rng(seed)
        x = awkward(rng, (n, c_in, h, w))
        new_cols, new_oh, new_ow = im2col(x, k, stride, pad)
        old_cols, old_oh, old_ow = nn_oracle.im2col(x, k, stride, pad)
        assert same_bytes(new_cols, old_cols) and (new_oh, new_ow) == (old_oh, old_ow)

        def conv(cls):
            return cls(c_in, c_out, k, np.random.default_rng(seed), stride=stride, pad=pad)

        new, params_only, old = conv(Conv2D), conv(Conv2D), conv(nn_oracle.Conv2D)
        out = old.forward(x, training=True)
        assert same_bytes(new.forward(x, training=True), out)
        params_only.forward(x, training=True)
        grad = awkward(rng, out.shape)
        assert same_bytes(new.backward(grad), old.backward(grad))
        params_only.backward_params(grad)
        for layer in (new, params_only):
            assert same_bytes(layer.grad_weight, old.grad_weight)
            assert same_bytes(layer.grad_bias, old.grad_bias)


class _OracleGradCAM(GradCAM):
    _forward = nn_oracle.gradcam_forward


def _cnn(seed: int, s: int, width: int, side: int, conv, pool) -> Sequential:
    rng = np.random.default_rng(seed)
    spatial = side // (s * s)
    return Sequential(
        [
            conv(3, width, kernel=3, rng=rng, pad=1),
            ReLU(),
            pool(s),
            conv(width, width, kernel=3, rng=rng, pad=1),
            ReLU(),
            pool(s),
            Flatten(),
            Dense(width * spatial * spatial, 8, rng=rng),
            ReLU(),
            Dropout(0.3, rng=rng),
            Dense(8, 3, rng=rng),
        ]
    )


class TestGradCAMParity:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.integers(1, 4),  # conv width
        st.integers(1, 2),  # final spatial size
        st.integers(1, 4),  # batch
    )
    def test_heatmap_masses_and_logits(self, seed, s, width, spatial, n):
        side = spatial * s * s
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(n, 3, side, side)) * 2) / 2
        rows = [rng.integers(0, 3, size=n) for _ in range(2)]
        new = GradCAM(_cnn(seed, s, width, side, Conv2D, MaxPool2D))
        old = _OracleGradCAM(
            _cnn(seed, s, width, side, nn_oracle.Conv2D, nn_oracle.MaxPool2D)
        )
        new_masses, new_logits = new.heatmap_masses(x, rows)
        old_masses, old_logits = old.heatmap_masses(x, rows)
        assert same_bytes(new_logits, old_logits)
        for a, b in zip(new_masses, old_masses):
            assert same_bytes(a, b)


# The experts' conv geometries: (in channels, out channels, input side) of the
# paper-scale VGG16 (width 8) and DDM (width 12) layers.  Below these sizes
# BLAS may sum in an order that depends on the patch layout; here the
# patches are read as the transposed view im2col returns.
_EXPERT_CONVS = [(3, 8, 32), (8, 8, 32), (8, 16, 16), (3, 12, 32), (12, 24, 16)]
#: The same layers at the fast scale (width 4), which the benchmark runs.
_FAST_CONVS = [(3, 4, 32), (4, 4, 32), (4, 8, 16)]
_EXPERT_BATCHES = [1, 5, 12, 24]


def _reference_col2im(cols, x_shape, kernel, stride, pad):
    """A copy of ``col2im``'s NCHW fold.

    ``nn_oracle.Conv2D`` calls the live ``col2im``, so only this pins its
    summation order.
    """
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


def _ddm(seed: int, width: int, side: int, conv, pool) -> Sequential:
    """The DDM backbone (``repro.models.ddm``) built from ``conv`` and ``pool``."""
    rng = np.random.default_rng(seed)
    spatial = side // 4
    return Sequential(
        [
            conv(3, width, kernel=3, rng=rng, pad=1),
            ReLU(),
            pool(2),
            conv(width, 2 * width, kernel=3, rng=rng, pad=1),
            ReLU(),
            pool(2),
            Flatten(),
            Dense(2 * width * spatial * spatial, 64, rng=rng),
            ReLU(),
            Dropout(0.15, rng=rng),
            Dense(64, 3, rng=rng),
        ]
    )


class TestExpertShapeParity:
    """Byte parity at the sizes the experts train and score at."""

    @pytest.mark.parametrize("n", _EXPERT_BATCHES)
    @pytest.mark.parametrize("c_in, c_out, side", _EXPERT_CONVS)
    def test_conv_forward_and_gradients(self, c_in, c_out, side, n):
        rng = np.random.default_rng(1000 * c_out + 10 * side + n)
        x = rng.normal(size=(n, c_in, side, side))

        def conv(cls):
            return cls(c_in, c_out, 3, np.random.default_rng(n), pad=1)

        new, params_only, old = conv(Conv2D), conv(Conv2D), conv(nn_oracle.Conv2D)
        assert same_bytes(new.forward(x), old.forward(x))
        out = old.forward(x, training=True)
        assert same_bytes(new.forward(x, training=True), out)
        params_only.forward(x, training=True)
        grad = rng.normal(size=out.shape)
        assert same_bytes(new.backward(grad), old.backward(grad))
        params_only.backward_params(grad)
        for layer in (new, params_only):
            assert same_bytes(layer.grad_weight, old.grad_weight)
            assert same_bytes(layer.grad_bias, old.grad_bias)

    @pytest.mark.parametrize("c_in, side", [(8, 32), (12, 16)])
    def test_col2im_matches_the_nchw_fold(self, c_in, side):
        rng = np.random.default_rng(side)
        x_shape = (5, c_in, side, side)
        grad_cols = rng.normal(size=(5 * side * side, c_in * 9))
        expected = _reference_col2im(grad_cols, x_shape, 3, 1, 1)
        for cols in (grad_cols, np.asfortranarray(grad_cols)):
            assert same_bytes(col2im(cols, x_shape, 3, 1, 1), expected)

    @pytest.mark.parametrize("n", _EXPERT_BATCHES)
    @pytest.mark.parametrize("width", [4, 12])
    def test_ddm_heatmap_masses_and_logits(self, width, n):
        side = 32
        rng = np.random.default_rng(width * 100 + n)
        x = rng.normal(size=(n, 3, side, side))
        rows = [rng.integers(0, 3, size=n) for _ in range(2)]
        new = GradCAM(_ddm(n, width, side, Conv2D, MaxPool2D))
        old = _OracleGradCAM(_ddm(n, width, side, nn_oracle.Conv2D, nn_oracle.MaxPool2D))
        new_masses, new_logits = new.heatmap_masses(x, rows)
        old_masses, old_logits = old.heatmap_masses(x, rows)
        assert same_bytes(new_logits, old_logits)
        for a, b in zip(new_masses, old_masses):
            assert same_bytes(a, b)

    @pytest.mark.parametrize("n", _EXPERT_BATCHES)
    @pytest.mark.parametrize("c_in, c_out, side", _EXPERT_CONVS + _FAST_CONVS)
    def test_experts_read_patches_without_a_copy(self, c_in, c_out, side, n):
        """The row-major fallback never catches an expert's layer."""
        layer = Conv2D(c_in, c_out, 3, np.random.default_rng(0), pad=1)
        layer.forward(np.zeros((n, c_in, side, side)), training=True)
        assert layer._cols.T.flags.c_contiguous and not layer._cols.flags.c_contiguous



# Conv gradients stay in the NHWC memory order the conv GEMM writes: col2im
# folds into an NHWC buffer a chunk of images at a time, and a max-pool's
# backward writes into its input's order, so no layer makes a transposing
# copy.  Values must not change.

_FOLD_GEOMETRIES = [(c_in, side) for c_in, _, side in _EXPERT_CONVS + _FAST_CONVS]
_FOLD_BATCHES = [1, 5, 12, 24, 32]
_FOLD_STEPS = [(1, 1), (2, 1), (1, 0), (2, 0)]  # (stride, pad)


def _fold_images(c_in: int, side: int, stride: int, pad: int) -> int:
    """Images per fold chunk at this geometry."""
    out = (side + 2 * pad - 3) // stride + 1
    return max(1, layers._FOLD_CHUNK_BYTES // (out * out * c_in * 9 * 8))


def _is_nhwc(grad: np.ndarray) -> bool:
    """Whether ``grad``'s memory runs channel-fastest, then width, then height."""
    nhwc = grad.transpose(0, 2, 3, 1)
    return nhwc.strides[3] == grad.itemsize and nhwc.strides[2] == nhwc.shape[3] * grad.itemsize


class TestNHWCGradients:
    @pytest.mark.parametrize("stride, pad", _FOLD_STEPS)
    @pytest.mark.parametrize("n", _FOLD_BATCHES)
    @pytest.mark.parametrize("c_in, side", _FOLD_GEOMETRIES)
    def test_col2im_matches_the_nchw_fold(self, c_in, side, n, stride, pad):
        rng = np.random.default_rng(1000 * c_in + 10 * side + n)
        x_shape = (n, c_in, side, side)
        out = (side + 2 * pad - 3) // stride + 1
        grad_cols = rng.normal(size=(n * out * out, c_in * 9))
        folded = col2im(grad_cols, x_shape, 3, stride, pad)
        assert same_bytes(folded, _reference_col2im(grad_cols, x_shape, 3, stride, pad))
        assert _is_nhwc(folded)

    def test_fold_chunks_split_the_batches(self):
        """Chunk boundaries fall inside the batches above, some raggedly.

        Every expert geometry folds some batch in several chunks, and so
        does some geometry at each other stride and pad.
        """
        for c_in, side in _FOLD_GEOMETRIES:
            assert max(_FOLD_BATCHES) > _fold_images(c_in, side, 1, 1)
        for stride, pad in _FOLD_STEPS:
            steps = [_fold_images(c_in, side, stride, pad) for c_in, side in _FOLD_GEOMETRIES]
            assert any(n > step and n % step for n in _FOLD_BATCHES for step in steps)

    @pytest.mark.parametrize("nhwc", [True, False])
    @pytest.mark.parametrize("n, c, side", [(5, 4, 32), (12, 8, 16), (1, 3, 8)])
    def test_max_pool_backward_follows_its_input(self, n, c, side, nhwc):
        rng = np.random.default_rng(n * c + side)
        x = awkward(rng, (n, c, side, side))
        if nhwc:
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        new, old = MaxPool2D(2), nn_oracle.MaxPool2D(2)
        out = new.forward(x, training=True)
        old.forward(x, training=True)
        grad = awkward(rng, out.shape)
        back = new.backward(grad)
        assert same_bytes(np.ascontiguousarray(back), old.backward(grad))
        assert back.strides == x.strides

    @pytest.mark.parametrize("n", [5, 12])
    @pytest.mark.parametrize("width", [4, 8])
    def test_conv_reads_its_gradient_without_a_copy(self, width, n):
        """In the VGG stack every conv reads its NHWC gradient as rows in place."""
        vgg = VGGModel(width=width)
        vgg._build(np.random.default_rng(width))
        net = vgg.model.layers
        rng = np.random.default_rng(n)
        logits = vgg.model.forward(rng.normal(size=(n, 3, 32, 32)), training=True)
        grad = rng.normal(size=logits.shape)
        convs = [i for i, layer in enumerate(net) if isinstance(layer, Conv2D)]
        for i in range(len(net) - 1, convs[0], -1):
            if i in convs:
                assert _is_nhwc(grad)
                assert np.shares_memory(net[i]._accumulate(grad), grad)
            grad = net[i].backward(grad)
        assert np.shares_memory(net[convs[0]]._accumulate(grad), grad)

    @pytest.mark.parametrize("width", [4, 12])
    def test_ddm_heatmap_masses_at_full_batches(self, width):
        """Grad-CAM's NHWC gradient at a 32-image batch: the same bytes."""
        TestExpertShapeParity().test_ddm_heatmap_masses_and_logits(width, 32)


# The max-pool mask is built with wrapping unsigned arithmetic and the conv
# bias is added over whole output rows.  The copies below are the forms they
# replaced (masked ``np.copyto`` writes; ``out += bias`` over O channels at a
# time), and the bytes, dtypes and strides must not change.


class _CopytoMaxPool2D(MaxPool2D):
    """``MaxPool2D`` with its mask built by masked ``np.copyto`` writes."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        s = self.size
        views = [x[:, :, dy::s, dx::s] for dy in range(s) for dx in range(s)]
        out = views[0].copy()
        for view in views[1:]:
            np.maximum(out, view, out=out)
        if training:
            first = np.zeros_like(views[0], dtype=np.min_scalar_type(len(views) - 1))
            for k in range(len(views) - 1, -1, -1):
                np.copyto(first, k, where=views[k] == out)
            self._mask = first
            self._x_shape = x.shape
        else:
            self._mask = None
            self._x_shape = None
        return out


class _BroadcastBiasConv2D(Conv2D):
    """``Conv2D`` adding its bias with ``out += bias``."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        cols, out_h, out_w = im2col(x, self.kernel, self.stride, self.pad)
        out_channels = self.weight.shape[0]
        if x.shape[0] > 1 and (out_channels == 1 or len(cols) * out_channels < 2048):
            cols = np.ascontiguousarray(cols)
        self._cols = cols if training else None
        self._x_shape = x.shape if training else None
        out = cols @ self.weight.reshape(out_channels, -1).T
        out += self.bias
        return out.reshape(x.shape[0], out_h, out_w, out_channels).transpose(0, 3, 1, 2)


def _nhwc(x: np.ndarray) -> np.ndarray:
    """``x`` with NHWC memory, as a conv's activations are."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _assert_same_pool(x: np.ndarray, s: int, grad: np.ndarray) -> None:
    new, old = MaxPool2D(s), _CopytoMaxPool2D(s)
    assert same_bytes(new.forward(x, training=True), old.forward(x, training=True))
    assert same_bytes(new._mask, old._mask)
    assert new._mask.strides == old._mask.strides
    back, expected = new.backward(grad), old.backward(grad)
    assert same_bytes(back, expected) and back.strides == expected.strides


class TestPoolMaskParity:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3]),
        st.integers(1, 3),  # batch
        st.integers(1, 3),  # channels
        st.integers(1, 4),  # output height
        st.integers(1, 4),  # output width
        st.booleans(),  # NHWC memory
    )
    def test_mask_and_backward(self, seed, s, n, c, oh, ow, nhwc):
        rng = np.random.default_rng(seed)
        x = awkward(rng, (n, c, oh * s, ow * s))
        _assert_same_pool(_nhwc(x) if nhwc else x, s, awkward(rng, (n, c, oh, ow)))

    @pytest.mark.parametrize("nhwc", [False, True])
    def test_ties_nan_windows_and_signed_zeros(self, nhwc):
        """One 2x2 window per channel, each routing to a known position."""
        windows = {
            (1.0, 1.0, 1.0, 1.0): 0,  # a four-way tie routes to the first
            (0.0, 2.0, 1.0, 2.0): 1,  # a tie after the first position
            (0.0, 1.0, 3.0, 3.0): 2,
            (-1.0, -2.0, -3.0, 0.5): 3,
            (-0.0, 0.0, -0.0, 0.0): 0,  # signed zeros compare equal
            (-1.0, -0.0, 0.0, -2.0): 1,
            (np.nan, 1.0, 2.0, 3.0): 0,  # NaN windows match nowhere
            (1.0, 2.0, np.nan, 3.0): 0,
            (-np.inf, -np.inf, -np.inf, -np.inf): 0,
            (1.0, np.inf, 2.0, np.inf): 1,
        }
        x = np.array(list(windows)).reshape(1, len(windows), 2, 2)
        if nhwc:
            x = _nhwc(x)
        pool = MaxPool2D(2)
        pool.forward(x, training=True)
        assert pool._mask.dtype == np.uint8
        assert pool._mask.ravel().tolist() == list(windows.values())
        grad = np.arange(1.0, len(windows) + 1).reshape(1, -1, 1, 1)
        _assert_same_pool(x, 2, grad)

    @pytest.mark.parametrize("s, dtype", [(16, np.uint8), (17, np.uint16)])
    def test_widest_masks(self, s, dtype):
        """Position 255 is the last a uint8 mask holds; 17 x 17 needs uint16."""
        rng = np.random.default_rng(s)
        x = np.round(rng.normal(size=(2, 2, s, 2 * s)))
        x[0, 0, -1, s - 1] = 99.0  # the first window's last position
        pool = MaxPool2D(s)
        pool.forward(x, training=True)
        assert pool._mask.dtype == dtype and pool._mask[0, 0, 0, 0] == s * s - 1
        _assert_same_pool(x, s, rng.normal(size=(2, 2, 1, 2)))


def _biased_convs(
    c_in: int, c_out: int, seed: int, bias: np.ndarray, **geometry
) -> tuple[Conv2D, Conv2D]:
    """The live conv and the broadcast-bias copy, both with ``bias``."""
    new = Conv2D(c_in, c_out, 3, np.random.default_rng(seed), **geometry)
    old = _BroadcastBiasConv2D(c_in, c_out, 3, np.random.default_rng(seed), **geometry)
    new.bias[...] = bias
    old.bias[...] = bias
    return new, old


class TestConvBiasParity:
    @pytest.mark.parametrize("n", _FOLD_BATCHES)
    @pytest.mark.parametrize("c_in, c_out, side", _EXPERT_CONVS + _FAST_CONVS)
    def test_expert_forward_bytes(self, c_in, c_out, side, n):
        rng = np.random.default_rng(1000 * c_out + 10 * side + n)
        x = rng.normal(size=(n, c_in, side, side))
        new, old = _biased_convs(c_in, c_out, n, rng.normal(size=c_out), pad=1)
        for training in (False, True):
            a, b = new.forward(x, training), old.forward(x, training)
            assert same_bytes(a, b) and a.strides == b.strides

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),  # batch
        st.integers(1, 3),  # in channels
        st.integers(1, 5),  # out channels
        st.integers(3, 7),  # side
        st.sampled_from([1, 2]),  # stride
        st.sampled_from([0, 1]),  # pad
    )
    def test_forward_bytes_on_awkward_values(self, seed, n, c_in, c_out, side, stride, pad):
        rng = np.random.default_rng(seed)
        x = awkward(rng, (n, c_in, side, side))
        bias = awkward(rng, (c_out,))
        new, old = _biased_convs(c_in, c_out, seed, bias, stride=stride, pad=pad)
        a, b = new.forward(x), old.forward(x)
        if c_out == 1 and np.isnan(bias[0]):
            # NaN + NaN keeps one operand's NaN, and numpy's loop for the
            # old stride-0 broadcast of a one-channel bias kept the bias's,
            # the row add keeps the product's: only NaN signs can differ.
            # No expert has a one-channel conv.
            assert np.isnan(a).all() and np.isnan(b).all()
        else:
            assert same_bytes(a, b)
