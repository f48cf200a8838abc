"""Configuration for the CrowdLearn system and its experiments.

Defaults mirror the paper's deployment: 40 ten-minute sensing cycles (10 per
temporal context), 10 images per cycle, 5 queried to the crowd, 5 workers
per query, the pilot's 7 incentive levels, and a total crowd budget swept
between 2 and 40 USD (default 20 USD — 10 cents per query on average, the
middle of the paper's sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crowd.delay import INCENTIVE_LEVELS
from repro.utils.clock import SECONDS_PER_CYCLE
from repro.utils.validation import (
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = ["CrowdLearnConfig"]

#: The smallest value of each ``int`` field of :class:`CrowdLearnConfig`.
_INT_FIELD_MINIMUMS = {
    "n_cycles": 1,
    "images_per_cycle": 1,
    "cycles_per_context": 1,
    "workers_per_query": 1,
    "n_workers": 1,
    "mic_replay_size": 0,
    "mic_replay_buffer": 1,
    "mic_warm_replay_sample": 0,
    "mic_full_refit_every": 0,
    "mic_warm_epochs": 1,
    "straggler_max_cycles": 1,
    "pilot_queries_per_cell": 1,
}


@dataclass(frozen=True)
class CrowdLearnConfig:
    """All knobs of a CrowdLearn deployment in one immutable bundle."""

    # Stream structure (paper §V-B).
    n_cycles: int = 40
    images_per_cycle: int = 10
    cycles_per_context: int = 10

    # Query selection.
    query_fraction: float = 0.5  # 5 of 10 images per cycle
    qss_epsilon: float = 0.2
    # VDBE adaptive exploration (Tokic & Palm, the paper's ref [37]): when
    # set, ε adapts to how much the crowd's feedback surprises the committee
    # instead of staying fixed at qss_epsilon.
    qss_adaptive: bool = False

    # Crowd platform.
    workers_per_query: int = 5
    n_workers: int = 120
    incentive_levels: tuple[float, ...] = INCENTIVE_LEVELS
    budget_usd: float = 20.0

    # MIC.
    mic_eta: float = 2.0
    mic_replay_size: int = 30
    mic_retrain: bool = True
    mic_reweight: bool = True
    mic_offload: bool = True
    # Warm-start incremental retraining (see repro.core.mic): non-refit
    # cycles fine-tune incumbent weights for mic_warm_epochs on the new
    # crowd batch + a small crowd ReplayBuffer sample instead of the full
    # golden-replay refit; every mic_full_refit_every-th retrain (and the
    # first) still takes the cold path.  mic_full_refit_every=1 makes every
    # retrain cold (bit-identical to mic_warm_start=False); 0 disables the
    # periodic refit.
    mic_warm_start: bool = False
    mic_replay_buffer: int = 64
    mic_warm_replay_sample: int = 4
    # 20 keeps paper-scale macro-F1 at cold parity while clearing the
    # >= 5x retrain-fit speedup budget (repro bench --full --check).
    mic_full_refit_every: int = 20
    mic_warm_epochs: int = 1

    # Virtual-time scheduler (see repro.crowd.scheduler).  Off by default:
    # the loop stays synchronous and byte-identical to the idealized
    # instant-response reproduction.  Enabled, each sensing cycle becomes a
    # real deadline — retry backoff consumes cycle time, responses slower
    # than the remaining cycle miss it, and (under the "harvest" policy)
    # arrive in a later cycle as straggler labels for CQC/MIC.
    scheduler_enabled: bool = False
    cycle_seconds: float = SECONDS_PER_CYCLE
    straggler_policy: str = "harvest"  # "harvest" | "drop"
    straggler_max_cycles: int = 3  # harvest window, in sensing cycles

    # Pilot study.
    pilot_queries_per_cell: int = 20

    def __post_init__(self) -> None:
        for name, minimum in _INT_FIELD_MINIMUMS.items():
            check_integer(getattr(self, name), name, minimum)
        check_probability(self.query_fraction, "query_fraction")
        check_probability(self.qss_epsilon, "qss_epsilon")
        if not self.incentive_levels:
            raise ValueError("incentive_levels must be non-empty")
        for level in self.incentive_levels:
            check_positive(level, "incentive_levels")
        check_positive(self.budget_usd, "budget_usd")
        check_non_negative(self.mic_eta, "mic_eta")
        check_positive(self.cycle_seconds, "cycle_seconds")
        if self.straggler_policy not in ("harvest", "drop"):
            raise ValueError(
                "straggler_policy must be 'harvest' or 'drop', "
                f"got {self.straggler_policy!r}"
            )

    @property
    def queries_per_cycle(self) -> int:
        """Number of images sent to the crowd each cycle."""
        return int(round(self.query_fraction * self.images_per_cycle))

    @property
    def total_queries(self) -> int:
        """Expected total crowd queries over the deployment."""
        return self.n_cycles * self.queries_per_cycle

    @property
    def budget_cents(self) -> float:
        """Total crowd budget in cents."""
        return self.budget_usd * 100.0

    def queries_per_context(self) -> dict:
        """Expected crowd queries per temporal context over the deployment.

        Contexts are visited in consecutive blocks of ``cycles_per_context``
        cycles in the paper's order (morning, afternoon, evening, midnight),
        wrapping if there are more blocks than contexts.
        """
        from repro.utils.clock import TemporalContext

        contexts = TemporalContext.ordered()
        counts = {context: 0 for context in contexts}
        for cycle in range(self.n_cycles):
            block = cycle // self.cycles_per_context
            counts[contexts[block % len(contexts)]] += self.queries_per_cycle
        return counts
