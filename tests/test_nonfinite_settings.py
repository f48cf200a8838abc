"""Non-finite policy and config values are refused, naming the field.

A NaN threshold makes every comparison against it false, so a mechanism
configured with one silently never fires (``x < y - nan`` never rolls
back); an infinite backoff or cycle length stalls the loop.  Each of these
settings must raise ``ValueError`` at construction instead.
"""

import pytest

from repro.core.config import CrowdLearnConfig
from repro.core.guards import GuardPolicy
from repro.core.mic import MachineIntelligenceCalibrator
from repro.core.resilience import ResiliencePolicy

NAN, INF = float("nan"), float("inf")

CASES = [
    (GuardPolicy, "regression_tolerance", NAN),
    (GuardPolicy, "max_update_ratio", NAN),
    (GuardPolicy, "drift_sigma", NAN),
    (GuardPolicy, "drift_sigma", INF),
    (ResiliencePolicy, "backoff_base_seconds", NAN),
    (ResiliencePolicy, "backoff_base_seconds", INF),
    (CrowdLearnConfig, "guard_regression_tolerance", NAN),
    (CrowdLearnConfig, "cycle_seconds", NAN),
    (CrowdLearnConfig, "cycle_seconds", INF),
    (CrowdLearnConfig, "mic_eta", NAN),
    (MachineIntelligenceCalibrator, "eta", NAN),
]


@pytest.mark.parametrize(
    "cls, field, value", CASES,
    ids=[f"{cls.__name__}.{field}={value}" for cls, field, value in CASES],
)
def test_non_finite_value_is_refused(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})
