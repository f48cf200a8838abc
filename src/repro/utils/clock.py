"""Simulated wall clock for the crowdsourcing platform and delay accounting.

The paper's evaluation runs 40 ten-minute sensing cycles spread over four
temporal contexts (morning, afternoon, evening, midnight).  A real deployment
would read the time of day from the system clock; the reproduction advances a
:class:`SimulatedClock` instead so that experiments are fast and fully
deterministic while preserving the context structure the IPD bandit exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["TemporalContext", "SimulatedClock", "SECONDS_PER_CYCLE"]

#: Duration of one sensing cycle in the paper's deployment (10 minutes).
SECONDS_PER_CYCLE = 600.0


class TemporalContext(str, Enum):
    """The four times of day the paper's pilot study distinguishes."""

    MORNING = "morning"
    AFTERNOON = "afternoon"
    EVENING = "evening"
    MIDNIGHT = "midnight"

    @classmethod
    def from_hour(cls, hour: float) -> "TemporalContext":
        """Map an hour of day (0-24) to its temporal context.

        Boundaries follow common usage: morning 6-12, afternoon 12-18,
        evening 18-24, midnight 0-6.
        """
        hour = hour % 24.0
        if 6.0 <= hour < 12.0:
            return cls.MORNING
        if 12.0 <= hour < 18.0:
            return cls.AFTERNOON
        if 18.0 <= hour < 24.0:
            return cls.EVENING
        return cls.MIDNIGHT

    @classmethod
    def ordered(cls) -> tuple["TemporalContext", ...]:
        """Contexts in the order the paper reports them."""
        return (cls.MORNING, cls.AFTERNOON, cls.EVENING, cls.MIDNIGHT)

    @property
    def index(self) -> int:
        """Stable integer id (0-3) used as the bandit context index."""
        return TemporalContext.ordered().index(self)


@dataclass
class SimulatedClock:
    """A monotonically advancing simulated clock.

    Parameters
    ----------
    start_hour:
        Hour of day (0-24) at which the simulation begins.
    """

    start_hour: float = 8.0
    _elapsed: float = field(default=0.0, init=False)

    @property
    def elapsed_seconds(self) -> float:
        """Seconds elapsed since the clock was created."""
        return self._elapsed

    @property
    def hour_of_day(self) -> float:
        """Current simulated hour of day in [0, 24)."""
        return (self.start_hour + self._elapsed / 3600.0) % 24.0

    @property
    def context(self) -> TemporalContext:
        """Temporal context for the current simulated time."""
        return TemporalContext.from_hour(self.hour_of_day)

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new elapsed time."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock backwards: {seconds}")
        self._elapsed += float(seconds)
        return self._elapsed

    def advance_to(self, elapsed_seconds: float) -> float:
        """Advance (forwards only) to an absolute elapsed time.

        A no-op when the clock is already at or past the target — simulated
        time never runs backwards, so a scheduler can realign to a cycle
        boundary even after backoff pushed the clock beyond it.
        """
        if elapsed_seconds > self._elapsed:
            self._elapsed = float(elapsed_seconds)
        return self._elapsed
