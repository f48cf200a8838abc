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
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Trains a model with shuffled minibatches and optional validation.

    Parameters
    ----------
    model, loss, optimizer:
        The usual trio.  The optimizer must have been constructed over the
        model's own ``params()``/``grads()`` lists.
    rng:
        Source of shuffling randomness (training is deterministic given it).
    telemetry:
        Optional :class:`~repro.telemetry.runtime.Telemetry`; ``None``
        resolves the process default, so ``repro trace`` runs see training
        spans from trainers constructed deep inside the models.
    sentinel:
        Optional :class:`~repro.core.guards.DivergenceSentinel`; ``None``
        resolves the process default (installed by
        :class:`~repro.core.guards.ModelGuard` around guarded retrains,
        absent otherwise).  With a sentinel active, an epoch whose loss
        goes non-finite or whose update norm explodes is rolled back to
        its pre-epoch weights and retried once at a reduced learning rate
        before the fit gives up cleanly.
    """

    def __init__(
        self,
        model: Sequential,
        loss: Loss,
        optimizer: Optimizer,
        rng: np.random.Generator,
        batch_size: int = 32,
        telemetry: Telemetry | None = None,
        sentinel: "DivergenceSentinel | None" = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.loss = loss
        self.optimizer = optimizer
        self.rng = rng
        self.batch_size = batch_size
        self.telemetry = telemetry
        self.sentinel = sentinel

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

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """(mean loss, accuracy) on held-out data, without updating weights."""
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        total_loss = 0.0
        correct = 0
        for start in range(0, n, self.batch_size):
            xb = x[start : start + self.batch_size]
            yb = y[start : start + self.batch_size]
            logits = self.model.forward(xb, training=False)
            total_loss += self.loss.forward(logits, yb) * len(xb)
            predicted = np.argmax(logits, axis=-1)
            correct += int(np.sum(predicted == self._hard_labels(yb)))
        return total_loss / n, correct / n

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        patience: int | None = None,
    ) -> TrainingHistory:
        """Train for up to ``epochs`` epochs with optional early stopping.

        Early stopping triggers when validation loss has not improved for
        ``patience`` consecutive epochs (requires validation data); the
        model is then restored to its best-validation snapshot, so stopping
        early can never return strictly worse weights than the best epoch
        seen.  A fit that runs to its epoch budget keeps the final weights,
        matching plain (non-early-stopped) training.

        When a divergence sentinel is active (explicit or installed as the
        process default), each epoch is additionally guarded: a divergent
        epoch is rolled back and retried once at a reduced learning rate,
        and a second divergence ends the fit with the last good weights in
        place (the history then holds only the completed good epochs).
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        has_val = x_val is not None and y_val is not None
        if patience is not None and not has_val:
            raise ValueError("early stopping requires validation data")
        tel = self.telemetry if self.telemetry is not None else get_telemetry()
        sentinel = self.sentinel
        if sentinel is None:
            from repro.core.guards import get_divergence_sentinel

            sentinel = get_divergence_sentinel()
        history = TrainingHistory()
        best_val = np.inf
        best_state: list[dict[str, np.ndarray]] | None = None
        stale = 0
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
                if has_val:
                    val_loss, val_acc = self.evaluate(x_val, y_val)
                    history.val_loss.append(val_loss)
                    history.val_accuracy.append(val_acc)
                    if patience is not None:
                        if val_loss < best_val - 1e-9:
                            best_val = val_loss
                            stale = 0
                            best_state = [
                                {k: v.copy() for k, v in layer_state.items()}
                                for layer_state in self.model.state()
                            ]
                        else:
                            stale += 1
                            if stale >= patience:
                                if best_state is not None:
                                    self.model.load_state(best_state)
                                break
            if tel.enabled:
                span.set(epochs_run=history.epochs)
                tel.counter(
                    "trainer_epochs_total", help="training epochs executed"
                ).inc(history.epochs)
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
        params_before = [p.copy() for p in self.model.params()]
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
