"""Tests for repro.nn.optim."""

import numpy as np
import pytest

from repro.nn.optim import Adam


def quadratic_problem():
    """A parameter and its gradient arrays for f(w) = 0.5 * ||w - 3||^2."""
    w = np.array([10.0, -5.0])
    g = np.zeros_like(w)
    return w, g


class TestAdam:
    def test_converges_on_quadratic(self):
        w, g = quadratic_problem()
        opt = Adam([w], [g], lr=0.3)
        for _ in range(300):
            g[...] = w - 3.0
            opt.step()
        np.testing.assert_allclose(w, 3.0, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        # With bias correction, the first Adam step is ~lr in each coordinate.
        w = np.array([10.0])
        g = np.zeros_like(w)
        opt = Adam([w], [g], lr=0.1)
        g[...] = 7.0
        opt.step()
        assert w[0] == pytest.approx(10.0 - 0.1, abs=1e-6)

    def test_invalid_betas_raise(self):
        w, g = quadratic_problem()
        with pytest.raises(ValueError):
            Adam([w], [g], beta1=1.0)

    def test_handles_sparse_gradient_scales(self):
        # Coordinates with very different gradient scales still both move.
        w = np.array([10.0, 10.0])
        g = np.zeros_like(w)
        opt = Adam([w], [g], lr=0.1)
        for _ in range(50):
            g[...] = [1000.0, 0.001]
            opt.step()
        assert w[0] < 10.0 and w[1] < 10.0
        # Adam normalizes per-coordinate: both should move comparably.
        assert abs((10.0 - w[0]) - (10.0 - w[1])) < 1.0

    def test_zero_grad(self):
        w, g = quadratic_problem()
        opt = Adam([w], [g], lr=0.1)
        g[...] = 5.0
        opt.zero_grad()
        np.testing.assert_array_equal(g, 0.0)

    def test_invalid_lr_raises(self):
        w, g = quadratic_problem()
        with pytest.raises(ValueError):
            Adam([w], [g], lr=0.0)

    def test_mismatched_lists_raise(self):
        w, g = quadratic_problem()
        with pytest.raises(ValueError):
            Adam([w], [g, g], lr=0.1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Adam([np.zeros(2)], [np.zeros(3)], lr=0.1)
