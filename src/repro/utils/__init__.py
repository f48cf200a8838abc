"""Shared utilities: seeded RNG, simulated clock, logging, validation."""

from repro.utils.clock import SECONDS_PER_CYCLE, SimulatedClock, TemporalContext
from repro.utils.logging import get_logger
from repro.utils.rng import SeedSequencer, default_rng
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "SECONDS_PER_CYCLE",
    "SimulatedClock",
    "TemporalContext",
    "get_logger",
    "SeedSequencer",
    "default_rng",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
