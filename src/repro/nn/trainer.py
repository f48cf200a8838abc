"""Minibatch training loop for :class:`~repro.nn.model.Sequential` models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.nn.losses import Loss
from repro.nn.model import Sequential
from repro.nn.optim import Optimizer
from repro.telemetry.runtime import Telemetry, get_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports nn)
    from repro.core.guards import DivergenceSentinel

__all__ = ["TrainingHistory", "Trainer"]


@dataclass
class TrainingHistory:
    """Per-epoch loss/accuracy traces collected during training."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Trains a model with shuffled minibatches.

    Parameters
    ----------
    model, loss, optimizer:
        The usual trio.  The optimizer must have been constructed over the
        model's own ``params()``/``grads()`` lists.
    rng:
        Source of shuffling randomness (training is deterministic given it).

    Each :meth:`fit` reads the process-default telemetry, so ``repro trace``
    runs see training spans from trainers constructed deep inside the
    models, and the process-default
    :class:`~repro.core.guards.DivergenceSentinel` (installed by
    :class:`~repro.core.guards.ModelGuard` around guarded retrains, absent
    otherwise).  With a sentinel active, an epoch whose loss goes
    non-finite or whose update norm explodes is rolled back to its
    pre-epoch weights and retried once at a reduced learning rate before
    the fit gives up cleanly.
    """

    def __init__(
        self,
        model: Sequential,
        loss: Loss,
        optimizer: Optimizer,
        rng: np.random.Generator,
        batch_size: int = 32,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.loss = loss
        self.optimizer = optimizer
        self.rng = rng
        self.batch_size = batch_size

    def train_epoch(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """One pass over the data; returns (mean loss, accuracy)."""
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot train on an empty dataset")
        order = self.rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            xb, yb = x[idx], y[idx]
            logits = self.model.forward(xb, training=True)
            batch_loss = self.loss.forward(logits, yb)
            self.model.zero_grad()
            self.model.backward(self.loss.backward(), input_grad=False)
            self.optimizer.step()
            total_loss += batch_loss * len(idx)
            predicted = np.argmax(logits, axis=-1)
            correct += int(np.sum(predicted == self._hard_labels(yb)))
        return total_loss / n, correct / n

    def fit(self, x: np.ndarray, y: np.ndarray, epochs: int) -> TrainingHistory:
        """Train for ``epochs`` epochs; the final weights are kept.

        The fit ends by clearing the model's forward caches: the last
        batch's patches, masks and inputs are never read again, since the
        next backward follows a fresh training forward.

        When a divergence sentinel is active, each epoch is guarded: a
        divergent epoch is rolled back and retried once at a reduced
        learning rate, and a second divergence ends the fit with the last
        good weights in place (the history then holds only the completed
        good epochs).
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        from repro.core.guards import get_divergence_sentinel

        tel = get_telemetry()
        sentinel = get_divergence_sentinel()
        history = TrainingHistory()
        with tel.span("trainer.fit", epochs=epochs, samples=len(x)) as span:
            for _ in range(epochs):
                with tel.span("trainer.epoch"):
                    if sentinel is None:
                        epoch_result = self.train_epoch(x, y)
                    else:
                        epoch_result = self._guarded_epoch(x, y, sentinel, tel)
                if epoch_result is None:
                    break  # sentinel gave up: keep the last good weights
                train_loss, train_acc = epoch_result
                history.train_loss.append(train_loss)
                history.train_accuracy.append(train_acc)
            if tel.enabled:
                span.set(epochs_run=history.epochs)
                tel.counter(
                    "trainer_epochs_total", help="training epochs executed"
                ).inc(history.epochs)
        self.model.clear_caches()
        return history

    def _guarded_epoch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sentinel: "DivergenceSentinel",
        tel: Telemetry,
    ) -> tuple[float, float] | None:
        """One epoch under the divergence sentinel.

        Returns the epoch's ``(loss, accuracy)``, or ``None`` when both the
        epoch and its reduced-learning-rate retry diverged; the model is
        left at its pre-epoch weights in that case.  Optimizer moments are
        deliberately *not* restored — if they were poisoned (e.g. by an inf
        gradient), the retry fails too and the fit stops cleanly, leaving
        recovery to the expert-level snapshot rollback one layer up.
        """
        saved = [
            {key: value.copy() for key, value in layer_state.items()}
            for layer_state in self.model.state()
        ]
        params_before = [p for layer in saved for p in layer.values()]  # params(), in order
        train_loss, train_acc = self.train_epoch(x, y)
        if not sentinel.diverged(train_loss, params_before, self.model.params()):
            return train_loss, train_acc
        sentinel.aborts += 1
        if tel.enabled:
            tel.counter(
                "trainer_sentinel_aborts_total",
                help="epochs aborted by the divergence sentinel",
            ).inc()
        self.model.load_state(saved)
        original_lr = self.optimizer.lr
        self.optimizer.lr = original_lr * sentinel.lr_backoff_factor
        try:
            sentinel.retries += 1
            train_loss, train_acc = self.train_epoch(x, y)
            if not sentinel.diverged(
                train_loss, params_before, self.model.params()
            ):
                return train_loss, train_acc
            sentinel.failures += 1
            if tel.enabled:
                tel.counter(
                    "trainer_sentinel_failures_total",
                    help="fits abandoned after a failed sentinel retry",
                ).inc()
            self.model.load_state(saved)
            return None
        finally:
            self.optimizer.lr = original_lr

    @staticmethod
    def _hard_labels(y: np.ndarray) -> np.ndarray:
        """Integer labels from either int labels or target distributions."""
        y = np.asarray(y)
        if y.ndim == 2:
            return np.argmax(y, axis=-1)
        return y.astype(np.int64)
