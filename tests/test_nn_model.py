"""Tests for repro.nn.model.Sequential."""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.model import Sequential


def make_mlp(rng):
    return Sequential([Dense(4, 8, rng), ReLU(), Dense(8, 3, rng)])


class TestSequential:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_forward_shape(self, rng):
        model = make_mlp(rng)
        assert model.forward(np.ones((5, 4))).shape == (5, 3)

    def test_predict_proba_rows_sum_to_one(self, rng):
        model = make_mlp(rng)
        probs = model.predict_proba(rng.normal(size=(6, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_predict_is_argmax(self, rng):
        model = make_mlp(rng)
        x = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(
            model.predict(x), np.argmax(model.predict_proba(x), axis=1)
        )

    def test_params_and_grads_parallel(self, rng):
        model = make_mlp(rng)
        params, grads = model.params(), model.grads()
        assert len(params) == len(grads) == 4  # two Dense layers x (W, b)
        for p, g in zip(params, grads):
            assert p.shape == g.shape

    def test_n_parameters(self, rng):
        model = make_mlp(rng)
        assert model.n_parameters() == 4 * 8 + 8 + 8 * 3 + 3

    def test_backward_chains_through_layers(self, rng):
        model = make_mlp(rng)
        x = rng.normal(size=(3, 4))
        out = model.forward(x, training=True)
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        assert any(np.abs(g).sum() > 0 for g in model.grads())

    @pytest.mark.parametrize("first", ["dense", "conv"])
    def test_backward_without_input_grad_keeps_param_grads(self, rng, first):
        if first == "dense":
            layers, x = [Dense(12, 8, rng)], rng.normal(size=(3, 12))
        else:
            conv = Conv2D(3, 2, kernel=3, rng=rng, pad=1)
            layers, x = [conv, ReLU(), Flatten()], rng.normal(size=(3, 3, 2, 2))
        model = Sequential(layers + [Dense(8, 8, rng), ReLU(), Dense(8, 3, rng)])
        out = model.forward(x, training=True)
        upstream = rng.normal(size=out.shape)
        model.backward(upstream)
        full = [g.copy() for g in model.grads()]
        model.zero_grad()
        assert model.backward(upstream, input_grad=False) is None
        for a, b in zip(full, model.grads()):
            assert a.tobytes() == b.tobytes()

    def test_zero_grad(self, rng):
        model = make_mlp(rng)
        out = model.forward(rng.normal(size=(3, 4)), training=True)
        model.backward(np.ones_like(out))
        model.zero_grad()
        for g in model.grads():
            np.testing.assert_array_equal(g, 0.0)

    def test_cnn_pipeline_shapes(self, rng):
        model = Sequential(
            [
                Conv2D(3, 4, kernel=3, rng=rng, pad=1),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(4 * 4 * 4, 3, rng),
            ]
        )
        assert model.forward(rng.normal(size=(2, 3, 8, 8))).shape == (2, 3)


class TestSerialization:
    def test_state_roundtrip_exact(self, rng):
        a = make_mlp(rng)
        b = make_mlp(rng)
        x = rng.normal(size=(4, 4))
        assert not np.allclose(a.forward(x), b.forward(x))
        b.load_state(a.state())
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    def test_save_load_file(self, rng, tmp_path):
        a = make_mlp(rng)
        b = make_mlp(rng)
        path = tmp_path / "model.pkl"
        a.save(path)
        b.load(path)
        x = rng.normal(size=(4, 4))
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    def test_load_state_wrong_length_raises(self, rng):
        a = make_mlp(rng)
        with pytest.raises(ValueError):
            a.load_state([{}])
