"""Common interface for DDA expert models (the committee members).

Every expert consumes :class:`~repro.data.dataset.DisasterDataset` batches
(pixels only — experts never see metadata) and produces a probability
distribution over the three damage labels: the "expert vote" of
Definition 6.  Experts support both full training and the cheap incremental
*retraining* the MIC module performs each sensing cycle with fresh crowd
labels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
import numpy as np

from repro.data.dataset import DisasterDataset
from repro.data.metadata import DamageLabel

__all__ = ["DDAModel", "next_model_version"]

#: Process-wide monotonic model-version counter (see next_model_version).
_version_counter: int = 0


def next_model_version(minimum: int = 0) -> int:
    """Advance and return the process-wide model-version counter.

    Versions identify *parameter states* (and BoVW codebooks) for the
    guard's holdout-score memo, its snapshot ring and the BoVW feature
    store: every ``fit``/``retrain`` assigns a fresh one.  The counter is
    global (not per expert) and never goes below ``minimum + 1``, so a
    version number is never reused within a process — in particular, an
    expert rolled back to a snapshot (which carries the snapshot's older
    version) can never later re-assign the number its discarded candidate
    used.
    """
    global _version_counter
    _version_counter = max(_version_counter + 1, int(minimum) + 1)
    return _version_counter


class DDAModel(ABC):
    """Abstract base class for damage-assessment experts."""

    #: Human-readable model name (matches the paper's baseline names).
    name: str = "dda-model"

    #: Backing field of :attr:`model_version`; 0 means "not yet assigned"
    #: (a class-level default so unpickled legacy instances behave).
    _model_version: int = 0

    @property
    def model_version(self) -> int:
        """This parameter state's process-unique version (lazily assigned)."""
        if self._model_version == 0:
            self._model_version = next_model_version()
        return self._model_version

    def bump_version(self) -> int:
        """Mark the parameters as changed; returns the new version.

        Concrete experts call this at the end of ``fit`` and ``retrain``
        (and :class:`~repro.core.committee.Committee` enforces it for
        third-party experts that forget), so a holdout score remembered
        for the old version is never served again.
        """
        self._model_version = next_model_version(self._model_version)
        return self._model_version

    @property
    def n_classes(self) -> int:
        """Number of output damage classes."""
        return DamageLabel.count()

    @abstractmethod
    def fit(self, dataset: DisasterDataset, rng: np.random.Generator) -> "DDAModel":
        """Train the expert from scratch on a labeled dataset."""

    @abstractmethod
    def predict_proba(self, dataset: DisasterDataset) -> np.ndarray:
        """Expert votes: class probabilities of shape ``(n, n_classes)``."""

    def predict(self, dataset: DisasterDataset) -> np.ndarray:
        """Hard labels (argmax of the expert vote)."""
        return np.argmax(self.predict_proba(dataset), axis=1)

    @abstractmethod
    def retrain(
        self,
        dataset: DisasterDataset,
        labels: np.ndarray,
        rng: np.random.Generator,
    ) -> "DDAModel":
        """Incrementally update the expert with crowd-provided labels.

        ``labels`` overrides the dataset's own ground truth (the crowd's
        truthful labels may be soft/incorrect; the expert must not peek at
        golden labels here).

        Built-in experts additionally accept a keyword-only ``epochs``
        override (used by warm-start retraining to shorten fine-tuning);
        :class:`~repro.core.committee.Committee` only forwards it when
        set, so third-party experts with the plain signature keep working.
        """

    def _check_fitted(self, fitted: bool) -> None:
        if not fitted:
            raise RuntimeError(f"{self.name} used before fit()")

    def _check_labels(self, dataset: DisasterDataset, labels: np.ndarray) -> np.ndarray:
        labels = np.asarray(labels)
        if labels.shape[0] != len(dataset):
            raise ValueError(
                f"labels ({labels.shape[0]}) must align with dataset "
                f"({len(dataset)})"
            )
        return labels
