"""Property tests: HOG orientations against ``np.arctan2(gy, gx) % np.pi``.

Both gradient functions fold ``arctan2``'s ``[-pi, pi]`` into ``[0, pi)``
without ``np.remainder``.  Every orientation must keep the remainder's
bytes (``tobytes()`` equality tells ``-0.0`` from ``0.0`` and checks NaN
positions): on ``±0``, on ``±pi``, on tiny negative angles that round up to
``pi``, and on NaN and ``±inf`` gradients.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.vision.hog import (
    _unsigned_orientation,
    batch_gradient_magnitude_orientation,
    gradient_magnitude_orientation,
)

# NaN and infinite pixels make numpy warn on the same operations on both sides.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

#: Gradient components whose angles reach every edge of ``[-pi, pi]``.
_EDGES = np.array(
    [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
     np.inf, -np.inf, np.nan]
)


def reference(gy: np.ndarray, gx: np.ndarray) -> np.ndarray:
    return np.arctan2(gy, gx) % np.pi


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_gradients(gray: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scalar gradient function with the remainder, on a gray image."""
    gx = np.empty_like(gray)
    gy = np.empty_like(gray)
    gx[:, 1:-1] = (gray[:, 2:] - gray[:, :-2]) / 2.0
    gx[:, 0] = gray[:, 1] - gray[:, 0]
    gx[:, -1] = gray[:, -1] - gray[:, -2]
    gy[1:-1, :] = (gray[2:, :] - gray[:-2, :]) / 2.0
    gy[0, :] = gray[1, :] - gray[0, :]
    gy[-1, :] = gray[-1, :] - gray[-2, :]
    return np.hypot(gx, gy), reference(gy, gx)


class TestUnsignedOrientation:
    def test_every_pair_of_edge_gradients(self):
        gy, gx = np.meshgrid(_EDGES, _EDGES)
        angle = np.arctan2(gy, gx)
        # The grid reaches the remainder's special cases.
        assert (angle == np.pi).any() and (angle == -np.pi).any()
        assert (np.signbit(angle) & (angle == 0)).any()
        assert ((angle < 0) & (angle + np.pi == np.pi)).any()
        assert np.isnan(angle).any()
        assert same_bytes(_unsigned_orientation(gy, gx), reference(gy, gx))

    def test_uniform_draws(self):
        rng = np.random.default_rng(0)
        gy, gx = rng.normal(size=(2, 10**6))
        assert same_bytes(_unsigned_orientation(gy, gx), reference(gy, gx))

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.just(2), st.integers(1, 40)),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
            | st.sampled_from(list(_EDGES)),
        )
    )
    def test_any_float_gradients(self, pair):
        gy, gx = pair
        assert same_bytes(_unsigned_orientation(gy, gx), reference(gy, gx))


def _edge_images(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gray images whose pixels are edge values, so are their gradients."""
    return rng.choice(_EDGES, size=(n, 6, 7))


class TestGradientFunctions:
    @pytest.mark.parametrize("seed", range(5))
    def test_scalar_function_keeps_the_remainders_bytes(self, seed):
        for gray in _edge_images(np.random.default_rng(seed), 4):
            magnitude, orientation = gradient_magnitude_orientation(gray)
            expected_magnitude, expected = reference_gradients(gray)
            assert same_bytes(magnitude, expected_magnitude)
            assert same_bytes(orientation, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_rows_match_the_scalar_function(self, seed):
        images = _edge_images(np.random.default_rng(seed), 4)
        magnitudes, orientations = batch_gradient_magnitude_orientation(images)
        for image, magnitude, orientation in zip(images, magnitudes, orientations):
            expected_magnitude, expected = gradient_magnitude_orientation(image)
            assert same_bytes(magnitude, expected_magnitude)
            assert same_bytes(orientation, expected)
