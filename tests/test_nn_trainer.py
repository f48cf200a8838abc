"""Tests for repro.nn.trainer."""

import numpy as np
import pytest

from repro.nn import layers
from repro.nn.layers import Conv2D, Dense, Flatten, ReLU
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer


def make_trainer(rng, batch_size=16):
    model = Sequential([Dense(2, 16, rng), ReLU(), Dense(16, 2, rng)])
    optimizer = Adam(model.params(), model.grads(), lr=0.01)
    return Trainer(
        model, SoftmaxCrossEntropy(), optimizer, rng=rng, batch_size=batch_size
    )


def blobs(rng, n=120):
    """Two linearly separable 2-D blobs."""
    x0 = rng.normal([-2, 0], 0.5, size=(n // 2, 2))
    x1 = rng.normal([2, 0], 0.5, size=(n // 2, 2))
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)]).astype(np.int64)
    return x, y


class TestTrainer:
    def test_learns_separable_blobs(self, rng):
        trainer = make_trainer(rng)
        x, y = blobs(rng)
        history = trainer.fit(x, y, epochs=30)
        assert history.train_accuracy[-1] > 0.95
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_lengths(self, rng):
        trainer = make_trainer(rng)
        x, y = blobs(rng, n=40)
        history = trainer.fit(x, y, epochs=5)
        assert history.epochs == 5
        assert len(history.train_accuracy) == 5

    def test_soft_labels_accepted(self, rng):
        trainer = make_trainer(rng)
        x, y = blobs(rng, n=40)
        onehot = np.eye(2)[y]
        soft = onehot * 0.9 + 0.05
        history = trainer.fit(x, soft, epochs=3)
        assert history.epochs == 3

    def test_empty_dataset_raises(self, rng):
        trainer = make_trainer(rng)
        with pytest.raises(ValueError):
            trainer.train_epoch(np.empty((0, 2)), np.empty(0, dtype=np.int64))

    def test_invalid_epochs_raises(self, rng):
        trainer = make_trainer(rng)
        x, y = blobs(rng, n=20)
        with pytest.raises(ValueError):
            trainer.fit(x, y, epochs=0)

    def test_invalid_batch_size_raises(self, rng):
        model = Sequential([Dense(2, 2, rng)])
        optimizer = Adam(model.params(), model.grads())
        with pytest.raises(ValueError):
            Trainer(model, SoftmaxCrossEntropy(), optimizer, rng, batch_size=0)

    def test_training_is_deterministic_given_seed(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        t1, t2 = make_trainer(rng1), make_trainer(rng2)
        x, y = blobs(np.random.default_rng(6))
        h1 = t1.fit(x, y, epochs=3)
        h2 = t2.fit(x, y, epochs=3)
        np.testing.assert_allclose(h1.train_loss, h2.train_loss)


def test_fit_computes_no_input_gradient(rng, monkeypatch):
    """The first layer's input gradient is never read, so never computed."""
    calls = []
    col2im = layers.col2im

    def counting_col2im(*args, **kwargs):
        calls.append(1)
        return col2im(*args, **kwargs)

    monkeypatch.setattr(layers, "col2im", counting_col2im)
    model = Sequential(
        [Conv2D(3, 2, kernel=3, rng=rng, pad=1), ReLU(), Flatten(), Dense(2 * 4 * 4, 2, rng)]
    )
    optimizer = Adam(model.params(), model.grads(), lr=0.01)
    trainer = Trainer(model, SoftmaxCrossEntropy(), optimizer, rng=rng, batch_size=4)
    before = [p.copy() for p in model.params()]
    trainer.fit(rng.normal(size=(8, 3, 4, 4)), rng.integers(0, 2, size=8), epochs=2)
    assert calls == []
    assert not np.array_equal(before[0], model.params()[0])  # the conv trained

    # Positive control: an input gradient does fold through the counted col2im.
    two_conv = Sequential(
        [Conv2D(3, 2, kernel=3, rng=rng, pad=1), ReLU(), Conv2D(2, 2, kernel=3, rng=rng, pad=1)]
    )
    out = two_conv.forward(rng.normal(size=(2, 3, 4, 4)), training=True)
    assert two_conv.backward(np.ones_like(out)).shape == (2, 3, 4, 4)
    assert len(calls) == 2
