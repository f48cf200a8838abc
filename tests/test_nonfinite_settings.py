"""Non-finite policy and config values are refused, naming the field.

A NaN threshold makes every comparison against it false, so a mechanism
configured with one silently never fires (``x < y - nan`` never rolls
back); an infinite backoff or cycle length stalls the loop, and a NaN
incentive level or delay-spike factor poisons every price or delay it
touches.  Each of these settings must raise ``ValueError`` at
construction instead.  Integer settings (counts, sizes, periods) also
refuse non-integral values.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.core.config import CrowdLearnConfig
from repro.core.guards import GuardPolicy
from repro.core.mic import MachineIntelligenceCalibrator
from repro.core.resilience import ResiliencePolicy
from repro.crowd.faults import FaultPlan
from repro.serve.pool import SharedCrowdPool

NAN, INF = float("nan"), float("inf")

CASES = [
    (GuardPolicy, "regression_tolerance", NAN),
    (GuardPolicy, "max_update_ratio", NAN),
    (GuardPolicy, "drift_sigma", NAN),
    (GuardPolicy, "drift_sigma", INF),
    (ResiliencePolicy, "backoff_base_seconds", NAN),
    (ResiliencePolicy, "backoff_base_seconds", INF),
    (CrowdLearnConfig, "cycle_seconds", NAN),
    (CrowdLearnConfig, "cycle_seconds", INF),
    (CrowdLearnConfig, "mic_eta", NAN),
    (CrowdLearnConfig, "incentive_levels", (1.0, NAN, 5.0)),
    (CrowdLearnConfig, "incentive_levels", (1.0, INF)),
    (CrowdLearnConfig, "incentive_levels", (-INF, 5.0)),
    (FaultPlan, "delay_spike_factor", NAN),
    (FaultPlan, "delay_spike_factor", INF),
    (MachineIntelligenceCalibrator, "eta", NAN),
]


@pytest.mark.parametrize(
    "cls, field, value", CASES,
    ids=[f"{cls.__name__}.{field}={value}" for cls, field, value in CASES],
)
def test_non_finite_value_is_refused(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


@pytest.mark.parametrize("value", [NAN, INF])
def test_fault_plan_from_dict_refuses_non_finite_spike_factor(value):
    """Serve manifests rebuild fault plans through ``from_dict``."""
    with pytest.raises(ValueError, match="delay_spike_factor"):
        FaultPlan.from_dict({"delay_spike_factor": value})


def _float_fields():
    """Every ``float``-typed field of the four settings dataclasses."""
    for cls in (CrowdLearnConfig, FaultPlan, GuardPolicy, ResiliencePolicy):
        for f in dataclasses.fields(cls):
            if f.type in ("float", float):
                yield cls, f.name


FLOAT_FIELDS = list(_float_fields())


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "cls, field", FLOAT_FIELDS,
    ids=[f"{cls.__name__}.{field}" for cls, field in FLOAT_FIELDS],
)
def test_every_float_field_refuses_non_finite(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


def _int_fields():
    """Every integer setting of the config, the MIC calibrator and the pool."""
    for f in dataclasses.fields(CrowdLearnConfig):
        if f.type in ("int", int):
            yield CrowdLearnConfig, f.name
    mic = inspect.signature(MachineIntelligenceCalibrator).parameters.values()
    for param in mic:
        if param.annotation in ("int", int):
            yield MachineIntelligenceCalibrator, param.name
    # The pool's other int fields are window state, not settings.
    yield SharedCrowdPool, "capacity_per_cycle"
    yield SharedCrowdPool, "max_backlog"


INT_FIELDS = list(_int_fields())
INT_IDS = [f"{cls.__name__}.{field}" for cls, field in INT_FIELDS]


def test_int_fields_cover_every_integer_setting():
    assert len(INT_FIELDS) == 12 + 5 + 2


@pytest.mark.parametrize(
    "value", [NAN, INF, -INF, 2.5, 3.0, True],
    ids=["nan", "inf", "-inf", "2.5", "3.0", "bool"],
)
@pytest.mark.parametrize("cls, field", INT_FIELDS, ids=INT_IDS)
def test_every_int_field_refuses_non_integers(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


@pytest.mark.parametrize(
    "value", [3, np.int64(3), np.int32(3), np.uint8(3)],
    ids=["int", "int64", "int32", "uint8"],
)
@pytest.mark.parametrize("cls, field", INT_FIELDS, ids=INT_IDS)
def test_every_int_field_accepts_python_and_numpy_integers(cls, field, value):
    cls(**{field: value})


@pytest.mark.parametrize("value", [NAN, INF, -INF, 0.0, -1.0])
def test_serve_priorities_refuse_non_finite_and_non_positive(value):
    """An event's priority weighs every metered window it joins, so a bad
    one is refused before the event is built or registered."""
    from types import SimpleNamespace

    from repro.serve.admission import AdmissionRequest
    from repro.serve.service import CrowdLearnService

    with pytest.raises(ValueError, match="priority"):
        AdmissionRequest("a", 4, priority=value)
    # Nothing is built before the check, so a world with no experts will do.
    setup = SimpleNamespace(
        config=CrowdLearnConfig(), seed=0, fast=True,
        base_committee=SimpleNamespace(experts=[]),
    )
    service = CrowdLearnService(setup)
    with pytest.raises(ValueError, match="priority"):
        service.submit_event("a", priority=value)
    assert len(service.registry) == 0
