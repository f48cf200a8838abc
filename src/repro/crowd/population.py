"""The worker population behind the black-box platform.

Workers are heterogeneous: reliability ~ Beta(16, 4) (mean 0.8, matching the
pilot's ~80% average label accuracy), insight ~ Beta(6, 2), speed lognormal
around 1.  Availability varies by temporal context — the pool is busiest in
the evening and at midnight, which is what flattens the incentive-delay curve
there (Figure 5's story).
"""

from __future__ import annotations

import numpy as np

from repro.crowd.worker import Worker
from repro.utils.clock import TemporalContext

__all__ = ["WorkerPopulation"]

_ACTIVITY_BASE: dict[TemporalContext, float] = {
    TemporalContext.MORNING: 0.5,
    TemporalContext.AFTERNOON: 0.6,
    TemporalContext.EVENING: 1.0,
    TemporalContext.MIDNIGHT: 0.9,
}


class WorkerPopulation:
    """A fixed pool of simulated workers.

    Parameters
    ----------
    n_workers:
        Pool size; the paper's platform draws from a large anonymous pool,
        so the default keeps repeat assignments per worker low but non-zero
        (the Filtering baseline needs some per-worker history).
    rng:
        Randomness for generating worker attributes.

    Each context's sampling probabilities are computed once, on its first
    draw, and kept until ``workers`` is assigned again; pickles leave them
    out.
    """

    def __init__(self, n_workers: int = 120, rng: np.random.Generator | None = None):
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        if rng is None:
            rng = np.random.default_rng()
        self.workers: list[Worker] = []
        for worker_id in range(n_workers):
            activity = {
                context: float(
                    np.clip(_ACTIVITY_BASE[context] * rng.uniform(0.5, 1.5), 0.05, 2.0)
                )
                for context in TemporalContext
            }
            self.workers.append(
                Worker(
                    worker_id=worker_id,
                    reliability=float(np.clip(rng.beta(16.0, 4.0), 0.3, 0.99)),
                    insight=float(np.clip(rng.beta(6.0, 2.0), 0.05, 0.99)),
                    speed=float(np.clip(rng.lognormal(0.0, 0.25), 0.4, 2.5)),
                    activity=activity,
                )
            )

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if name == "workers":
            super().__setattr__("_probs", {})

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_probs", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._probs = {}

    def __len__(self) -> int:
        return len(self.workers)

    def __getitem__(self, worker_id: int) -> Worker:
        return self.workers[worker_id]

    def mean_reliability(self) -> float:
        """Population-average reliability (should hover near 0.8)."""
        return float(np.mean([w.reliability for w in self.workers]))

    def capacity_per_cycle(
        self, workers_per_query: int, utilization: float = 1.0
    ) -> int:
        """Nominal queries this pool can absorb in one sensing cycle.

        Each worker handles roughly one HIT per cycle, and every query
        fans out to ``workers_per_query`` assignments, so the pool
        saturates at ``n_workers * utilization / workers_per_query``
        concurrent queries.  The serving layer uses this as the default
        cross-event capacity when none is configured explicitly.
        """
        if workers_per_query <= 0:
            raise ValueError(
                f"workers_per_query must be positive, got {workers_per_query}"
            )
        if not 0.0 < utilization <= 1.0:
            raise ValueError(
                f"utilization must be in (0, 1], got {utilization}"
            )
        return max(1, int(len(self.workers) * utilization) // workers_per_query)

    def sample_workers(
        self,
        k: int,
        context: TemporalContext,
        rng: np.random.Generator,
    ) -> list[Worker]:
        """Draw ``k`` distinct workers, weighted by context availability.

        This is the platform's opaque worker-assignment step: the requester
        cannot choose who answers (black-box observation 1 in §III-B).
        """
        if not 1 <= k <= len(self.workers):
            raise ValueError(
                f"k must be in [1, {len(self.workers)}], got {k}"
            )
        probs = self._probs.get(context)
        if probs is None:
            weights = np.array([w.activity[context] for w in self.workers])
            probs = self._probs[context] = weights / weights.sum()
        chosen = rng.choice(len(self.workers), size=k, replace=False, p=probs)
        return [self.workers[int(i)] for i in chosen]
