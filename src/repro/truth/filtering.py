"""Worker-quality filtering — blacklist-then-vote aggregation.

The *Filtering* baseline [13] blacklists workers whose graded history shows
poor accuracy and majority-votes over the rest.  Its known weakness, which
Table I exhibits, is cold start: workers without enough history cannot be
filtered, so early rounds behave like plain voting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.tasks import QueryResult
from repro.data.metadata import DamageLabel
from repro.truth.base import Aggregator, vote_fractions

__all__ = ["QualityFilter"]


@dataclass
class QualityFilter(Aggregator):
    """Majority voting over workers that pass a track-record filter.

    Parameters
    ----------
    platform:
        Source of worker track records (graded past responses).
    min_history:
        Minimum graded responses before a worker can be judged at all.
    min_accuracy:
        Historical accuracy below which a judged worker is blacklisted.
    """

    platform: CrowdsourcingPlatform
    min_history: int = 5
    min_accuracy: float = 0.7

    def is_blacklisted(self, worker_id: int) -> bool:
        """Whether the worker's graded history falls below the bar."""
        graded, correct = self.platform.worker_track_record(worker_id)
        if graded < self.min_history:
            return False  # cold start: cannot judge, must keep
        return correct / graded < self.min_accuracy

    def label_distributions(self, results: list[QueryResult]) -> np.ndarray:
        """Vote fractions over each query's non-blacklisted workers.

        A query whose every worker is blacklisted falls back to all of its
        responses (the platform must return *some* answer).
        """
        return vote_fractions(
            [self._kept_labels(result) for result in results], DamageLabel.count()
        )

    def _kept_labels(self, result: QueryResult) -> list[int]:
        kept = [r for r in result.responses if not self.is_blacklisted(r.worker_id)]
        return [int(r.label) for r in kept or result.responses]
