"""VGG16-style CNN expert.

The paper's strongest-known single-CNN baseline is Nguyen et al.'s
fine-tuned VGG16 [6].  At 32x32 synthetic scale a faithful 16-layer VGG is
pointless; what matters for the reproduction is the *role*: a deep
convolutional pixel classifier with stacked 3x3 convolutions and max-pooling
(the VGG signature), trained end-to-end on damage labels.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import DisasterDataset
from repro.models.base import DDAModel
from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer

__all__ = ["VGGModel"]


class VGGModel(DDAModel):
    """A compact VGG-style CNN: 3x3 conv blocks + max-pool + dense head.

    Parameters
    ----------
    epochs:
        Full-training epochs over the training set.
    retrain_epochs:
        Epochs per incremental MIC retraining call.
    width:
        Channel width of the first conv block (doubles in the second).
    image_size:
        Input spatial size (must be divisible by 4).
    """

    name = "VGG16"

    def __init__(
        self,
        epochs: int = 8,
        retrain_epochs: int = 2,
        width: int = 8,
        lr: float = 1e-3,
        batch_size: int = 32,
        image_size: int = 32,
        dropout: float = 0.2,
    ) -> None:
        if image_size % 4:
            raise ValueError(f"image_size must be divisible by 4, got {image_size}")
        self.epochs = epochs
        self.retrain_epochs = retrain_epochs
        self.width = width
        self.lr = lr
        self.batch_size = batch_size
        self.image_size = image_size
        self.dropout = dropout
        self.model: Sequential | None = None
        self._trainer: Trainer | None = None

    def _build(self, rng: np.random.Generator) -> None:
        w = self.width
        final_spatial = self.image_size // 4
        self.model = Sequential(
            [
                Conv2D(3, w, kernel=3, rng=rng, pad=1),
                ReLU(),
                Conv2D(w, w, kernel=3, rng=rng, pad=1),
                ReLU(),
                MaxPool2D(2),
                Conv2D(w, 2 * w, kernel=3, rng=rng, pad=1),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(2 * w * final_spatial * final_spatial, 64, rng=rng),
                ReLU(),
                Dropout(self.dropout, rng=rng),
                Dense(64, self.n_classes, rng=rng),
            ]
        )
        optimizer = Adam(self.model.params(), self.model.grads(), lr=self.lr)
        self._trainer = Trainer(
            self.model,
            SoftmaxCrossEntropy(),
            optimizer,
            rng=rng,
            batch_size=self.batch_size,
        )

    def fit(self, dataset: DisasterDataset, rng: np.random.Generator) -> "VGGModel":
        self._build(rng)
        assert self._trainer is not None
        x = dataset.pixels_nchw()
        y = dataset.labels()
        self._trainer.fit(x, y, epochs=self.epochs)
        # Later retraining is fine-tuning: drop the step size so small crowd
        # batches adjust the decision boundary without destabilizing it.
        self._trainer.optimizer.lr = self.lr * 0.25
        self.bump_version()
        return self

    def predict_proba(self, dataset: DisasterDataset) -> np.ndarray:
        self._check_fitted(self.model is not None)
        assert self.model is not None
        return self.model.predict_proba(dataset.pixels_nchw())

    def retrain(
        self,
        dataset: DisasterDataset,
        labels: np.ndarray,
        rng: np.random.Generator,
        *,
        epochs: int | None = None,
    ) -> "VGGModel":
        """Fine-tune on crowd-labeled images for a few epochs.

        Minibatch shuffling (and dropout) draw from the *passed* per-stage
        generator, so retraining is deterministic given ``rng`` regardless
        of how much the trainer's original stream was consumed before.
        ``epochs`` overrides ``retrain_epochs`` (warm-start fine-tuning).
        """
        self._check_fitted(self._trainer is not None)
        assert self._trainer is not None
        labels = self._check_labels(dataset, labels)
        self._trainer.rng = rng
        self._trainer.model.reseed(rng)
        x = dataset.pixels_nchw()
        self._trainer.fit(
            x, labels, epochs=self.retrain_epochs if epochs is None else epochs
        )
        self.bump_version()
        return self
