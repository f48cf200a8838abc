"""Tests for repro.nn.layers, including numerical gradient checks.

Every layer's hand-written backward pass is verified against central-
difference numerical gradients — the canonical correctness test for a
from-scratch NN substrate.
"""

import pickle

import numpy as np
import pytest

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


def numerical_grad(f, x, eps=1e-5):
    """Central-difference gradient of scalar f w.r.t. array x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        grad_flat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def check_input_gradient(layer, x, atol=1e-6):
    """Compare layer.backward's input gradient to the numerical one."""
    out = layer.forward(x, training=True)
    upstream = np.random.default_rng(0).normal(size=out.shape)
    analytic = layer.backward(upstream)

    def loss():
        return float((layer.forward(x, training=False) * upstream).sum())

    numeric = numerical_grad(loss, x)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


def check_param_gradients(layer, x, atol=1e-6):
    """Compare layer parameter gradients to numerical ones."""
    out = layer.forward(x, training=True)
    upstream = np.random.default_rng(1).normal(size=out.shape)
    layer.zero_grad()
    layer.backward(upstream)
    for param, grad in zip(layer.params(), layer.grads()):
        def loss():
            return float((layer.forward(x, training=False) * upstream).sum())

        numeric = numerical_grad(loss, param)
        np.testing.assert_allclose(grad, numeric, atol=atol, rtol=1e-4)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, rng)
        assert layer.forward(np.ones((5, 4))).shape == (5, 3)

    def test_forward_linear(self, rng):
        layer = Dense(2, 2, rng)
        x = rng.normal(size=(3, 2))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight + layer.bias)

    def test_input_gradient(self, rng):
        layer = Dense(4, 3, rng)
        check_input_gradient(layer, rng.normal(size=(3, 4)))

    def test_param_gradients(self, rng):
        layer = Dense(3, 2, rng)
        check_param_gradients(layer, rng.normal(size=(4, 3)))

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Dense(2, 2, rng).backward(np.ones((1, 2)))

    def test_bad_input_shape_raises(self, rng):
        with pytest.raises(ValueError):
            Dense(4, 3, rng).forward(np.ones((5, 5)))

    def test_state_roundtrip(self, rng):
        a, b = Dense(3, 2, rng), Dense(3, 2, rng)
        b.load_state(a.state())
        np.testing.assert_array_equal(a.weight, b.weight)


class TestIm2Col:
    def test_roundtrip_counts_overlaps(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols, oh, ow = im2col(x, kernel=3, stride=1, pad=1)
        assert (oh, ow) == (6, 6)
        back = col2im(cols, x.shape, kernel=3, stride=1, pad=1)
        # col2im sums overlapping contributions; the center of a 3x3/stride-1
        # kernel with pad 1 is visited 9 times.
        assert back.shape == x.shape

    def test_stride_two(self, rng):
        x = rng.normal(size=(1, 1, 8, 8))
        cols, oh, ow = im2col(x, kernel=2, stride=2, pad=0)
        assert (oh, ow) == (4, 4)
        assert cols.shape == (16, 4)

    def test_too_large_kernel_raises(self, rng):
        with pytest.raises(ValueError):
            im2col(rng.normal(size=(1, 1, 3, 3)), kernel=5, stride=1, pad=0)


class TestConv2D:
    def test_forward_shape(self, rng):
        layer = Conv2D(3, 5, kernel=3, rng=rng, pad=1)
        assert layer.forward(np.ones((2, 3, 8, 8))).shape == (2, 5, 8, 8)

    def test_matches_naive_convolution(self, rng):
        layer = Conv2D(1, 1, kernel=3, rng=rng, pad=0)
        x = rng.normal(size=(1, 1, 5, 5))
        out = layer.forward(x)
        # Naive cross-correlation at one position.
        manual = (
            x[0, 0, 1:4, 1:4] * layer.weight[0, 0]
        ).sum() + layer.bias[0]
        assert out[0, 0, 1, 1] == pytest.approx(manual)

    def test_input_gradient(self, rng):
        layer = Conv2D(2, 3, kernel=3, rng=rng, pad=1)
        check_input_gradient(layer, rng.normal(size=(2, 2, 5, 5)), atol=1e-5)

    def test_param_gradients(self, rng):
        layer = Conv2D(1, 2, kernel=2, rng=rng)
        check_param_gradients(layer, rng.normal(size=(2, 1, 4, 4)), atol=1e-5)

    def test_stride(self, rng):
        layer = Conv2D(1, 1, kernel=2, rng=rng, stride=2)
        assert layer.forward(np.ones((1, 1, 8, 8))).shape == (1, 1, 4, 4)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            Conv2D(3, 4, kernel=3, rng=rng).forward(np.ones((1, 2, 8, 8)))


class TestMaxPool2D:
    def test_forward_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_input_gradient(self, rng):
        layer = MaxPool2D(2)
        check_input_gradient(layer, rng.normal(size=(2, 2, 4, 4)))

    def test_gradient_routes_to_max_only(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer = MaxPool2D(2)
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[1.0]]]]))
        np.testing.assert_array_equal(grad, [[[[0, 0], [0, 1.0]]]])

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            MaxPool2D(3).forward(np.ones((1, 1, 4, 4)))


class TestReLU:
    def test_forward(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_input_gradient(self, rng):
        # Keep inputs away from the kink at 0.
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 0.1] = 0.5
        check_input_gradient(ReLU(), x)


class TestFlatten:
    def test_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 48)
        grad = layer.backward(out)
        np.testing.assert_array_equal(grad, x)


class TestDropout:
    def test_inference_is_identity(self, rng):
        layer = Dropout(0.5, rng)
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_training_preserves_expectation(self, rng):
        layer = Dropout(0.3, rng)
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_zero_rate_is_identity_in_training(self, rng):
        layer = Dropout(0.0, rng)
        x = rng.normal(size=(3, 3))
        np.testing.assert_array_equal(layer.forward(x, training=True), x)

    def test_invalid_rate_raises(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)


#: Attributes a training forward fills for backward to read.
FORWARD_CACHES = (
    "_cols", "_x_shape", "_mask", "_input", "_shape",
)

#: (name, layer factory, input shape) for every layer type.
LAYER_CASES = [
    ("dense", lambda rng: Dense(6, 4, rng=rng), (5, 6)),
    ("conv", lambda rng: Conv2D(3, 4, kernel=3, rng=rng, pad=1), (2, 3, 6, 6)),
    ("maxpool", lambda rng: MaxPool2D(2), (2, 3, 6, 6)),
    ("relu", lambda rng: ReLU(), (5, 6)),
    ("flatten", lambda rng: Flatten(), (2, 3, 4, 4)),
    ("dropout", lambda rng: Dropout(0.5, rng=rng), (5, 6)),
]


class TestPickleDropsForwardCaches:
    """A pickled layer carries its state but none of its forward caches."""

    @staticmethod
    def _trained(factory, shape):
        rng = np.random.default_rng(0)
        layer = factory(np.random.default_rng(1))
        x = rng.normal(size=shape)
        out = layer.forward(x, training=True)
        layer.backward(rng.normal(size=out.shape))
        layer.forward(x, training=True)  # leave the caches full
        return layer, x

    @pytest.mark.parametrize(
        "factory,shape", [c[1:] for c in LAYER_CASES], ids=[c[0] for c in LAYER_CASES]
    )
    def test_round_trip_keeps_state_and_drops_caches(self, factory, shape):
        layer, x = self._trained(factory, shape)
        caches = [k for k in FORWARD_CACHES if k in vars(layer)]
        assert any(getattr(layer, k) is not None for k in caches)

        restored = pickle.loads(pickle.dumps(layer))
        for key in caches:
            assert getattr(restored, key) is None, key
        for original, copy in zip(
            layer.params() + layer.grads(), restored.params() + restored.grads()
        ):
            assert np.array_equal(original, copy)
        if isinstance(layer, Dropout):
            assert (
                restored._rng.bit_generator.state
                == layer._rng.bit_generator.state
            )
        assert np.array_equal(
            restored.forward(x, training=False), layer.forward(x, training=False)
        )

    @pytest.mark.parametrize(
        "factory,shape",
        [c[1:] for c in LAYER_CASES if c[0] != "dropout"],
        ids=[c[0] for c in LAYER_CASES if c[0] != "dropout"],
    )
    def test_backward_before_forward_raises_after_round_trip(
        self, factory, shape
    ):
        layer, x = self._trained(factory, shape)
        out = layer.forward(x, training=True)
        restored = pickle.loads(pickle.dumps(layer))
        with pytest.raises(RuntimeError, match="before a training forward"):
            restored.backward(np.ones_like(out))
        # A fresh training forward makes backward work again, identically.
        restored.forward(x, training=True)
        assert np.array_equal(
            restored.backward(np.ones_like(out)), layer.backward(np.ones_like(out))
        )

    @pytest.mark.parametrize(
        "factory,shape",
        [c[1:] for c in LAYER_CASES if c[0] != "dropout"],
        ids=[c[0] for c in LAYER_CASES if c[0] != "dropout"],
    )
    def test_inference_forward_clears_caches(self, factory, shape):
        rng = np.random.default_rng(0)
        layer = factory(np.random.default_rng(1))
        x = rng.normal(size=shape)
        out = layer.forward(x, training=True)
        layer.forward(x, training=False)
        with pytest.raises(RuntimeError, match="before a training forward"):
            layer.backward(np.ones_like(out))

    def test_dropout_round_trip_draws_the_same_masks(self):
        layer, x = self._trained(lambda rng: Dropout(0.5, rng=rng), (5, 6))
        restored = pickle.loads(pickle.dumps(layer))
        assert restored._mask is None
        assert np.array_equal(
            restored.forward(x, training=True), layer.forward(x, training=True)
        )
