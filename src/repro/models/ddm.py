"""DDM expert: CNN + Grad-CAM damage heatmap (Li et al. [5]).

DDM extends the plain CNN by *localizing* damage: Grad-CAM heatmaps for the
damage classes measure how much of the image the damage evidence covers, and
a small calibration head refines the CNN's class distribution with that
spatial evidence.  This gives DDM the edge over plain VGG that Table II
reports, at the cost of a higher inference delay (Table III).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import DisasterDataset
from repro.data.metadata import DamageLabel
from repro.models.base import DDAModel
from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.model import Sequential
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer
from repro.vision.gradcam import GradCAM

__all__ = ["DDMModel"]


class DDMModel(DDAModel):
    """CNN backbone + Grad-CAM severity calibration.

    The backbone classifies pixels; Grad-CAM heatmap mass for the moderate
    and severe classes quantifies the damaged *area*; a logistic calibration
    head (one dense layer) maps ``[cnn probs, heatmap masses]`` to the final
    severity distribution.  Both stages train on the same labeled data.
    """

    name = "DDM"

    def __init__(
        self,
        epochs: int = 16,
        retrain_epochs: int = 2,
        width: int = 12,
        lr: float = 1e-3,
        batch_size: int = 32,
        image_size: int = 32,
        head_epochs: int = 40,
        head_retrain_epochs: int | None = None,
    ) -> None:
        if image_size % 4:
            raise ValueError(f"image_size must be divisible by 4, got {image_size}")
        if head_retrain_epochs is not None and head_retrain_epochs <= 0:
            raise ValueError(
                f"head_retrain_epochs must be positive, got {head_retrain_epochs}"
            )
        self.epochs = epochs
        self.retrain_epochs = retrain_epochs
        self.width = width
        self.lr = lr
        self.batch_size = batch_size
        self.image_size = image_size
        self.head_epochs = head_epochs
        #: Calibration-head epochs per retrain; ``None`` scales with the
        #: backbone schedule as ``max(2 * backbone_epochs, 2)`` (the
        #: historical behavior).
        self.head_retrain_epochs = head_retrain_epochs
        self.backbone: Sequential | None = None
        self.head: Sequential | None = None
        self._backbone_trainer: Trainer | None = None
        self._head_trainer: Trainer | None = None
        self._gradcam: GradCAM | None = None

    def _build(self, rng: np.random.Generator) -> None:
        w = self.width
        final_spatial = self.image_size // 4
        self.backbone = Sequential(
            [
                Conv2D(3, w, kernel=3, rng=rng, pad=1),
                ReLU(),
                MaxPool2D(2),
                Conv2D(w, 2 * w, kernel=3, rng=rng, pad=1),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(2 * w * final_spatial * final_spatial, 64, rng=rng),
                ReLU(),
                Dropout(0.15, rng=rng),
                Dense(64, self.n_classes, rng=rng),
            ]
        )
        optimizer = Adam(self.backbone.params(), self.backbone.grads(), lr=self.lr)
        self._backbone_trainer = Trainer(
            self.backbone,
            SoftmaxCrossEntropy(),
            optimizer,
            rng=rng,
            batch_size=self.batch_size,
        )
        self._gradcam = GradCAM(self.backbone)
        # Calibration head: [3 cnn probs + 2 heatmap masses] -> 3 classes.
        self.head = Sequential([Dense(self.n_classes + 2, self.n_classes, rng=rng)])
        head_optimizer = Adam(self.head.params(), self.head.grads(), lr=0.05)
        self._head_trainer = Trainer(
            self.head,
            SoftmaxCrossEntropy(),
            head_optimizer,
            rng=rng,
            batch_size=self.batch_size,
        )

    def _head_features(self, x: np.ndarray) -> np.ndarray:
        """[cnn probs, moderate-heatmap mass, severe-heatmap mass] per image.

        One shared forward pass feeds the probabilities and both heatmaps
        (Dropout is inference-mode throughout, so the logits match a plain
        ``predict_proba`` bit for bit; see ``GradCAM.heatmap_masses``).
        """
        assert self.backbone is not None and self._gradcam is not None
        n = x.shape[0]
        moderate = np.full(n, int(DamageLabel.MODERATE))
        severe = np.full(n, int(DamageLabel.SEVERE))
        (mass_moderate, mass_severe), logits = self._gradcam.heatmap_masses(
            x, [moderate, severe]
        )
        probs = softmax(logits)
        return np.concatenate(
            [probs, mass_moderate[:, None], mass_severe[:, None]], axis=1
        )

    def fit(self, dataset: DisasterDataset, rng: np.random.Generator) -> "DDMModel":
        self._build(rng)
        assert self._backbone_trainer is not None and self._head_trainer is not None
        x = dataset.pixels_nchw()
        y = dataset.labels()
        self._backbone_trainer.fit(x, y, epochs=self.epochs)
        self._head_trainer.fit(self._head_features(x), y, epochs=self.head_epochs)
        # Later retraining is fine-tuning: use reduced step sizes.
        self._backbone_trainer.optimizer.lr = self.lr * 0.25
        self._head_trainer.optimizer.lr = 0.05 * 0.25
        self.bump_version()
        return self

    def predict_proba(self, dataset: DisasterDataset) -> np.ndarray:
        self._check_fitted(self.head is not None)
        assert self.head is not None
        features = self._head_features(dataset.pixels_nchw())
        return self.head.predict_proba(features)

    def heatmaps(self, dataset: DisasterDataset) -> np.ndarray:
        """Grad-CAM heatmaps for each image's predicted class (for display)."""
        self._check_fitted(self.backbone is not None)
        assert self.backbone is not None and self._gradcam is not None
        x = dataset.pixels_nchw()
        predicted = self.backbone.predict(x)
        return self._gradcam.heatmaps(x, predicted)

    def retrain(
        self,
        dataset: DisasterDataset,
        labels: np.ndarray,
        rng: np.random.Generator,
        *,
        epochs: int | None = None,
    ) -> "DDMModel":
        """Fine-tune backbone and calibration head on crowd labels.

        Both trainers (and the backbone's dropout) share the *passed*
        per-stage generator, mirroring the single shared stream ``_build``
        sets up.  ``epochs`` overrides the backbone schedule; the head
        follows ``head_retrain_epochs`` when set, else scales with the
        effective backbone epochs as ``max(2 * epochs, 2)``.
        """
        self._check_fitted(self._backbone_trainer is not None)
        assert self._backbone_trainer is not None and self._head_trainer is not None
        labels = self._check_labels(dataset, labels)
        self._backbone_trainer.rng = rng
        self._backbone_trainer.model.reseed(rng)
        self._head_trainer.rng = rng
        backbone_epochs = self.retrain_epochs if epochs is None else epochs
        head_epochs = (
            self.head_retrain_epochs
            if self.head_retrain_epochs is not None
            else max(backbone_epochs * 2, 2)
        )
        x = dataset.pixels_nchw()
        self._backbone_trainer.fit(x, labels, epochs=backbone_epochs)
        self._head_trainer.fit(self._head_features(x), labels, epochs=head_epochs)
        self.bump_version()
        return self
