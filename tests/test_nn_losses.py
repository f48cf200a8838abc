"""Tests for repro.nn.losses."""

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy, softmax


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(10, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_stable_for_large_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_ordering_preserved(self):
        probs = softmax(np.array([[1.0, 3.0, 2.0]]))
        assert np.argmax(probs) == 1


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[100.0, 0.0, 0.0]])
        assert loss.forward(logits, np.array([0])) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_is_log_k(self):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((4, 3))
        value = loss.forward(logits, np.array([0, 1, 2, 0]))
        assert value == pytest.approx(np.log(3))

    def test_gradient_matches_numerical(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(5, 3))
        targets = rng.integers(0, 3, size=5)
        loss.forward(logits, targets)
        analytic = loss.backward()
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                logits[i, j] += eps
                up = loss.forward(logits, targets)
                logits[i, j] -= 2 * eps
                down = loss.forward(logits, targets)
                logits[i, j] += eps
                numeric[i, j] = (up - down) / (2 * eps)
        loss.forward(logits, targets)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_accepts_soft_targets(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(3, 3))
        soft = rng.dirichlet(np.ones(3), size=3)
        value = loss.forward(logits, soft)
        assert np.isfinite(value) and value > 0

    def test_soft_targets_renormalized(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(2, 3))
        targets = np.array([[2.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        hard = loss.forward(logits, np.array([0, 1]))
        scaled = loss.forward(logits, targets)
        assert scaled == pytest.approx(hard)

    def test_out_of_range_targets_raise(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3)), np.array([0, 3]))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()
