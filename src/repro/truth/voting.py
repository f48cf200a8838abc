"""Majority voting — the simplest crowd label aggregator.

The paper's Table I compares CQC against plain majority voting, which is
known to be suboptimal when workers have unequal reliability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crowd.tasks import QueryResult
from repro.data.metadata import DamageLabel
from repro.truth.base import Aggregator, vote_fractions

__all__ = ["MajorityVote"]


@dataclass
class MajorityVote(Aggregator):
    """Vote fractions as the distribution; the plurality label wins."""

    n_classes: int = DamageLabel.count()

    def label_distributions(self, results: list[QueryResult]) -> np.ndarray:
        return vote_fractions([r.labels() for r in results], self.n_classes)
