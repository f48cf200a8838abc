"""Crowd Quality Control (§IV-C).

CQC turns noisy per-worker responses into a truthful label per query.  Its
key idea over voting/TD-EM/filtering: besides the workers' labels it also
consumes their fixed-form questionnaire *evidence* (is the image fake? what
does it show? are people in danger?), training a gradient-boosting
classifier (the XGBoost stand-in) on pilot queries whose golden labels are
known.  The evidence channel is what recovers the deceptive images whose
label votes are wrong in correlated ways.
"""

from __future__ import annotations

import numpy as np

from repro.boosting.gbt import GradientBoostedClassifier
from repro.crowd.questionnaire import encode_query_features
from repro.crowd.tasks import QueryResult
from repro.data.metadata import DamageLabel
from repro.truth.base import Aggregator

__all__ = ["CrowdQualityControl"]


class CrowdQualityControl(Aggregator):
    """Gradient-boosted fusion of crowd labels and questionnaire evidence.

    An :class:`~repro.truth.base.Aggregator` fitted on the pilot's golden
    labels.  :meth:`truthful_labels` keeps the boosted classifier's own
    ``predict`` (the argmax of its logits) rather than the argmax of the
    softmax, so exact ties break as the committed digests pin.

    Parameters
    ----------
    n_estimators, max_depth, learning_rate:
        Hyperparameters of the underlying gradient-boosted trees.
    use_questionnaire:
        When False, only the label-vote features are used — the ablation
        showing the evidence channel is where CQC's advantage comes from.
    """

    def __init__(
        self,
        n_estimators: int = 60,
        max_depth: int = 3,
        learning_rate: float = 0.15,
        use_questionnaire: bool = True,
    ) -> None:
        self.use_questionnaire = use_questionnaire
        self._classifier = GradientBoostedClassifier(
            n_estimators=n_estimators,
            max_depth=max_depth,
            learning_rate=learning_rate,
            subsample=0.8,
        )
        self._fitted = False

    def _feature_dim(self) -> int:
        from repro.data.metadata import SceneType

        n = DamageLabel.count() + 1 + len(SceneType) + 1 + 1
        return n if self.use_questionnaire else DamageLabel.count() + 1

    def _features(self, results: list[QueryResult]) -> np.ndarray:
        if not results:
            # A faulty platform can leave a cycle with zero usable queries;
            # encode that as an empty matrix rather than crashing.
            return np.empty((0, self._feature_dim()))
        rows = np.stack([encode_query_features(r) for r in results])
        if self.use_questionnaire:
            return rows
        # Keep only the 3 label-vote fractions + the vote margin.
        k = DamageLabel.count()
        return np.concatenate([rows[:, :k], rows[:, -1:]], axis=1)

    def fit(
        self,
        results: list[QueryResult],
        golden_labels: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> "CrowdQualityControl":
        """Train on queries with known golden labels (pilot data)."""
        if not results:
            raise ValueError("cannot fit CQC on zero query results")
        golden_labels = np.asarray(golden_labels, dtype=np.int64).ravel()
        if golden_labels.shape[0] != len(results):
            raise ValueError("one golden label per query result is required")
        # Every damage class is an output even when the pilot lacks some,
        # so distributions always line up with the committee's votes.
        self._classifier.fit(
            self._features(results),
            golden_labels,
            rng=rng,
            n_classes=DamageLabel.count(),
        )
        self._fitted = True
        return self

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("CrowdQualityControl used before fit()")

    def truthful_labels(self, results: list[QueryResult]) -> np.ndarray:
        """The truthful label TL for each query (empty input → empty output)."""
        return self.fuse(results)[0]

    def label_distributions(self, results: list[QueryResult]) -> np.ndarray:
        """Probabilistic truthful-label distributions D(TL) (for Eq. 5).

        Empty input yields an empty ``(0, n_classes)`` matrix — no NaNs ever
        flow downstream from a cycle whose queries all failed.
        """
        return self.fuse(results)[1]

    def fuse(self, results: list[QueryResult]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`truthful_labels` and :meth:`label_distributions` at once.

        The sensing cycle needs both for the same queries: this encodes
        their features and walks the boosted forest once.  The labels are
        the argmax of the logits, the classifier's own ``predict``.
        """
        self._check_fitted()
        if not results:
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, DamageLabel.count())),
            )
        return self._classifier.predict_with_proba(self._features(results))

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    def feature_importances(self) -> dict[str, float]:
        """Which crowd signals CQC actually relies on.

        Returns feature-name → split-frequency importance (sums to 1),
        making the quality-control step inspectable — e.g. how much weight
        the "is it photoshopped?" evidence carries vs the raw label votes.
        """
        self._check_fitted()
        from repro.crowd.questionnaire import feature_names

        names = feature_names()
        if not self.use_questionnaire:
            k = DamageLabel.count()
            names = names[:k] + names[-1:]
        importances = self._classifier.feature_importances()
        return dict(zip(names, importances.tolist()))
