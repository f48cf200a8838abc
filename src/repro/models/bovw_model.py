"""Bag-of-visual-words expert (the handcrafted-feature baseline).

Reproduces the role of Bosch et al.'s BoVW classifier [51] in the paper's
committee: handcrafted features (dense patch words + HOG + color histograms)
feeding a shallow neural-network classifier.  Deliberately the weakest
expert, as in Table II.
"""

from __future__ import annotations

import numpy as np

from repro.core.cache import BoundedCache
from repro.data.dataset import DisasterDataset
from repro.models.base import DDAModel, next_model_version
from repro.nn.layers import Dense, ReLU
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer
from repro.vision.bovw import BoVWEncoder
from repro.vision.histograms import grayscale_histogram_batch

__all__ = ["BoVWModel"]


class BoVWModel(DDAModel):
    """BoVW features + a shallow MLP head.

    Parameters
    ----------
    vocabulary_size:
        Number of visual words in the codebook.
    hidden:
        Width of the single hidden layer.
    """

    name = "BoVW"

    def __init__(
        self,
        vocabulary_size: int = 40,
        hidden: int = 24,
        epochs: int = 40,
        retrain_epochs: int = 2,
        lr: float = 1e-3,
        batch_size: int = 32,
        include_global: bool = False,
        include_intensity: bool = True,
        feature_cache_size: int = 4096,
    ) -> None:
        # Pure visual-word histograms by default: global HOG/color features
        # make the handcrafted baseline uncharacteristically strong on
        # synthetic scenes, whereas the paper's BoVW is the weakest expert.
        self.encoder = BoVWEncoder(
            vocabulary_size=vocabulary_size, include_global=include_global
        )
        self.include_intensity = include_intensity
        self.hidden = hidden
        self.epochs = epochs
        self.retrain_epochs = retrain_epochs
        self.lr = lr
        self.batch_size = batch_size
        self.model: Sequential | None = None
        self._trainer: Trainer | None = None
        if feature_cache_size <= 0:
            raise ValueError(
                f"feature_cache_size must be positive, got {feature_cache_size}"
            )
        self.feature_cache_size = feature_cache_size
        #: Bounded LRU store keyed ``(feature_version, image_id)``.  The
        #: serving layer replaces it with one store every event shares.
        self.feature_store: BoundedCache = BoundedCache(feature_cache_size)
        #: Backing field of :attr:`feature_version` (0 = not yet assigned).
        self._feature_version: int = 0

    @property
    def feature_version(self) -> int:
        """Version of the encoder codebook the cached features came from.

        Bumped on :meth:`fit` only: :meth:`retrain` fine-tunes the MLP
        head with the codebook frozen, so per-image features stay valid
        across retrains (that is the whole point of caching them).
        """
        if self._feature_version == 0:
            self._feature_version = next_model_version()
        return self._feature_version

    def _features(self, dataset: DisasterDataset) -> np.ndarray:
        """Encode (and memoize by image id) the dataset's BoVW features.

        Besides the visual-word histogram, a coarse 8-bin intensity
        histogram is appended when ``include_intensity`` is set — a weak
        global cue in the spirit of classical BoVW pipelines' color
        channels.
        """
        store = self.feature_store
        version = self.feature_version
        rows: list[np.ndarray | None] = []
        misses: list[tuple[int, "object"]] = []
        for image in dataset:
            key = (version, image.image_id)
            cached = store.get(key)
            rows.append(cached)
            if cached is None:
                misses.append((len(rows) - 1, image))
        if misses:
            # All misses are encoded, and their intensity histograms binned,
            # in one vectorized pass each (bit-identical to per-image
            # encoding; see BoVWEncoder.encode_batch).
            pixels = np.stack([image.pixels for _, image in misses])
            encoded = self.encoder.encode_batch(pixels)
            if self.include_intensity:
                intensity = grayscale_histogram_batch(pixels, n_bins=8)
                encoded = np.concatenate([encoded, intensity], axis=1)
            for (position, image), features in zip(misses, encoded):
                store.put((version, image.image_id), features)
                rows[position] = features
        return np.stack(rows)

    def fit(self, dataset: DisasterDataset, rng: np.random.Generator) -> "BoVWModel":
        self.encoder.fit(dataset.pixels_hwc(), rng)
        # A new codebook obsoletes every cached feature: bumping the
        # version (instead of clearing a store other experts may share)
        # makes the old entries unreachable; LRU reclaims them.
        self._feature_version = next_model_version(self._feature_version)
        features = self._features(dataset)
        self.model = Sequential(
            [
                Dense(features.shape[1], self.hidden, rng=rng),
                ReLU(),
                Dense(self.hidden, self.n_classes, rng=rng),
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
        self._trainer.fit(features, dataset.labels(), epochs=self.epochs)
        # Later retraining is fine-tuning: use a reduced step size.
        self._trainer.optimizer.lr = self.lr * 0.25
        self.bump_version()
        return self

    def predict_proba(self, dataset: DisasterDataset) -> np.ndarray:
        self._check_fitted(self.model is not None)
        assert self.model is not None
        return self.model.predict_proba(self._features(dataset))

    def retrain(
        self,
        dataset: DisasterDataset,
        labels: np.ndarray,
        rng: np.random.Generator,
        *,
        epochs: int | None = None,
    ) -> "BoVWModel":
        """Fine-tune the MLP head on crowd-labeled images (codebook frozen).

        Minibatch shuffling draws from the *passed* per-stage generator so
        the update is deterministic given ``rng``; ``epochs`` overrides
        ``retrain_epochs`` (warm-start fine-tuning).
        """
        self._check_fitted(self._trainer is not None)
        assert self._trainer is not None
        labels = self._check_labels(dataset, labels)
        self._trainer.rng = rng
        features = self._features(dataset)
        self._trainer.fit(
            features, labels, epochs=self.retrain_epochs if epochs is None else epochs
        )
        self.bump_version()
        return self
