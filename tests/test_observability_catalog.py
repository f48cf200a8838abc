"""Every instrument and span the system registers is documented.

An instrumented fast deployment, an instrumented serve fleet with one
faulted event (so the breaker and health instruments register) and a
crash followed by a journal recovery (so the ``recovery_*`` counters
register) are run; every instrument name and span name they register must
be covered by a backticked name in ``docs/OBSERVABILITY.md``.  A ``*`` in a
documented family such as ``guard_*_total`` matches any run of characters.
"""

import re
from pathlib import Path

import pytest

from repro.crowd.faults import CrashPoint, FaultInjector, FaultPlan, InjectedCrash
from repro.data.stream import SensingCycleStream
from repro.eval.journal import CycleJournal, resume_run
from repro.eval.runner import build_crowdlearn, prepare
from repro.serve import CrowdLearnService, loadgen
from repro.telemetry import Telemetry
from repro.utils.rng import SeedSequencer

DOC = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"


def documented_patterns(text: str) -> list[re.Pattern]:
    """One full-match pattern per backticked name; label sets are cut off."""
    patterns = []
    for token in re.findall(r"`([^`\s]+)`", text):
        name = token.split("{", 1)[0]
        if re.search(r"[A-Za-z0-9]", name):
            patterns.append(
                re.compile(".*".join(map(re.escape, name.split("*"))))
            )
    return patterns


def undocumented(names: set[str], patterns: list[re.Pattern]) -> list[str]:
    return sorted(
        name for name in names
        if not any(p.fullmatch(name) for p in patterns)
    )


def registered_names(telemetry: Telemetry) -> set[str]:
    """Every instrument name and span name ``telemetry`` has seen."""
    return {instrument.name for instrument in telemetry.registry} | {
        span.name for span in telemetry.tracer.spans
    }


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=0, fast=True)


@pytest.fixture(scope="module")
def deployment_names(setup):
    telemetry = Telemetry()
    system = build_crowdlearn(setup, telemetry=telemetry)
    system.run(setup.make_stream("catalog"))
    return registered_names(telemetry)


@pytest.fixture(scope="module")
def serve_names(setup):
    service = CrowdLearnService(setup, instrument=True)
    try:
        service.submit_event("healthy")
        service.submit_event("faulted", fault_plan=loadgen.chaos_plan())
        service.drain()
        assert service.quarantined_events() == ["faulted"]
        names = set()
        for telemetry in service.telemetries.values():
            names |= registered_names(telemetry)
        return names
    finally:
        service.close()


@pytest.fixture(scope="module")
def recovery_names(setup, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("catalog-recovery")
    checkpoint, journal_path = tmp / "run.ckpt", tmp / "run.journal"

    def fresh():
        system = build_crowdlearn(setup, telemetry=Telemetry())
        stream = SensingCycleStream(
            setup.test_set,
            n_cycles=2,
            images_per_cycle=setup.config.images_per_cycle,
            cycles_per_context=setup.config.cycles_per_context,
            rng=setup.seeds.get("stream-catalog-crash"),
        )
        return system, stream

    system, stream = fresh()
    system.platform.faults = FaultInjector(
        FaultPlan(crash_points=(CrashPoint.parse("post:1:0:raise"),)),
        SeedSequencer(0).get("faults"),
    )
    journal = CycleJournal.create(
        journal_path, crash_injector=system.platform.faults
    )
    with pytest.raises(InjectedCrash):
        try:
            system.run(stream, checkpoint_path=checkpoint, journal=journal)
        finally:
            journal.close()
    result = resume_run(checkpoint, journal_path, fresh=fresh)
    return registered_names(result.system.telemetry)


class TestObservabilityCatalog:
    @pytest.fixture(scope="class")
    def patterns(self):
        return documented_patterns(DOC.read_text(encoding="utf-8"))

    def test_wildcards_cover_families_only(self, patterns):
        assert undocumented({"guard_rollbacks_total"}, patterns) == []
        assert undocumented({"no_such_instrument"}, patterns) == [
            "no_such_instrument"
        ]

    def test_deployment_is_documented(self, deployment_names, patterns):
        assert "cycle.mic.retrain.fit" in deployment_names
        missing = undocumented(deployment_names, patterns)
        assert not missing, missing

    def test_serve_fleet_is_documented(self, serve_names, patterns):
        assert {"breaker_opened_total", "health_quarantined_total"} <= serve_names
        missing = undocumented(serve_names, patterns)
        assert not missing, missing

    def test_crash_recovery_is_documented(self, recovery_names, patterns):
        assert "recovery_restarts" in recovery_names
        missing = undocumented(recovery_names, patterns)
        assert not missing, missing
