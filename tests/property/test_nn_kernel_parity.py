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

from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU, im2col
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
