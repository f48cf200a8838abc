"""The QBC committee (Definitions 4-8).

A committee is a set of DDA experts with dynamic weights.  It produces the
weighted committee vote of Eq. 2 and the committee entropy of Eq. 3, which
QSS uses to find the samples the AI is uncertain about and MIC uses to
derive final labels after reweighting.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import DisasterDataset
from repro.metrics.information import batch_entropy
from repro.models.base import DDAModel

__all__ = ["Committee"]


class Committee:
    """A weighted committee of DDA experts.

    Parameters
    ----------
    experts:
        The member models (the paper uses VGG16, BoVW and DDM).
    weights:
        Initial expert weights; uniform when omitted.  Weights are kept
        normalized to sum to 1.
    """

    def __init__(
        self, experts: list[DDAModel], weights: np.ndarray | None = None
    ) -> None:
        if not experts:
            raise ValueError("committee requires at least one expert")
        self.experts = list(experts)
        if weights is None:
            weights = np.full(len(experts), 1.0 / len(experts))
        self.set_weights(weights)

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    @property
    def weights(self) -> np.ndarray:
        """Current normalized expert weights (copy)."""
        return self._weights.copy()

    def set_weights(self, weights: np.ndarray) -> None:
        """Replace the expert weights (renormalized to sum to 1).

        Raises ``ValueError`` unless every weight is finite and
        non-negative and their sum is positive: a NaN passes both ``< 0``
        and ``<= 0`` checks and would poison every later vote.
        """
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != len(self.experts):
            raise ValueError(
                f"need {len(self.experts)} weights, got {weights.shape[0]}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"weights must be finite, got {weights}")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        self._weights = weights / weights.sum()

    def _after_update(self, expert: DDAModel, version_before: int) -> None:
        """Ensure a retrained expert's version moved.

        Built-in experts bump their own version inside ``fit``/``retrain``;
        third-party experts may not, so the committee enforces the bump
        (the guard's holdout-score memo keys on it).
        """
        if expert.model_version == version_before:
            expert.bump_version()

    def fit(self, dataset: DisasterDataset, rng: np.random.Generator) -> "Committee":
        """Train every expert on the same labeled dataset."""
        for expert in self.experts:
            before = expert.model_version
            expert.fit(dataset, rng)
            self._after_update(expert, before)
        return self

    def expert_votes(self, dataset: DisasterDataset) -> list[np.ndarray]:
        """Each expert's vote V(AI_m) — one ``(n, k)`` array per expert."""
        return [expert.predict_proba(dataset) for expert in self.experts]

    def _effective_weights(self, mask: np.ndarray | None) -> np.ndarray:
        """The vote weights after applying an optional active-member mask.

        ``mask=None`` returns the stored weights untouched (the unguarded
        path stays bit-identical).  A boolean mask zeroes excluded members
        — e.g. experts quarantined by :class:`~repro.core.guards.ModelGuard`
        — and renormalizes the survivors; if every *weighted* member is
        masked out, the active members share weight uniformly.
        """
        if mask is None:
            return self._weights
        mask = np.asarray(mask, dtype=bool).ravel()
        if mask.shape[0] != len(self.experts):
            raise ValueError(
                f"mask must cover {len(self.experts)} experts, got {mask.shape[0]}"
            )
        if not mask.any():
            raise ValueError("mask must keep at least one expert active")
        masked = np.where(mask, self._weights, 0.0)
        total = masked.sum()
        if total <= 0:
            masked = mask.astype(np.float64)
            total = masked.sum()
        return masked / total

    def committee_vote(
        self,
        dataset: DisasterDataset,
        votes: list[np.ndarray] | None = None,
        mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Weighted, normalized committee vote ρ (Eq. 2), shape ``(n, k)``.

        Pass precomputed ``votes`` to avoid re-running the experts, and an
        optional boolean ``mask`` to exclude (quarantined) members from the
        vote without disturbing their stored weights.
        """
        if votes is None:
            votes = self.expert_votes(dataset)
        if len(votes) != len(self.experts):
            raise ValueError("one vote array per expert is required")
        weights = self._effective_weights(mask)
        stacked = np.einsum("m,mnk->nk", weights, np.stack(votes))
        totals = stacked.sum(axis=1, keepdims=True)
        zero_rows = (totals <= 0.0).ravel()
        if zero_rows.any():
            # A row can end up with zero mass when every active expert
            # assigns (numerically) zero probability everywhere — fall back
            # to a uniform vote for those rows instead of dividing to NaN.
            k = stacked.shape[1]
            stacked = np.where(zero_rows[:, None], 1.0 / k, stacked)
            totals = np.where(zero_rows[:, None], 1.0, totals)
        return stacked / totals

    def committee_entropy(
        self,
        dataset: DisasterDataset,
        votes: list[np.ndarray] | None = None,
        mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Committee entropy H per sample (Eq. 3), shape ``(n,)``."""
        rho = self.committee_vote(dataset, votes, mask=mask)
        return batch_entropy(rho)

    def predict(
        self,
        dataset: DisasterDataset,
        votes: list[np.ndarray] | None = None,
        mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Final labels: argmax of the committee vote."""
        return np.argmax(self.committee_vote(dataset, votes, mask=mask), axis=1)

    def retrain(
        self,
        dataset: DisasterDataset,
        labels: np.ndarray,
        rng: np.random.Generator,
        epochs: int | None = None,
    ) -> "Committee":
        """Incrementally retrain every expert on crowd-labeled data.

        ``epochs`` overrides each expert's per-retrain epoch schedule
        (warm-start fine-tuning passes 1-2 here).  It is only forwarded
        when set, so third-party experts whose ``retrain`` lacks the
        keyword keep working on the default path.
        """
        for expert in self.experts:
            before = expert.model_version
            if epochs is None:
                expert.retrain(dataset, labels, rng)
            else:
                expert.retrain(dataset, labels, rng, epochs=epochs)
            self._after_update(expert, before)
        return self
