"""The benchmark's workloads and the drivers that run one unit of each.

Every workload runs on the library's small world (``prepare(...,
fast=True)``: 180 images, 120 for training, small experts), because the
paper-scale world takes about 30 s to build and a run must build it
several times to report a steady set-up time.  A unit is one deployment
(the loop workloads) or one fleet of events (``fleet``); each
uses the whole 60-image test pool, so a unit is 12 sensing cycles of 5
images per deployment or event.

Load comes from one process in a closed loop: the next cycle starts when
the previous one returns.  Sensing windows are virtual 600 s windows, so
the measured question is how much compute a cycle takes, not queueing.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import CrowdLearnConfig
from repro.core.system import CycleOutcome, RunOutcome
from repro.eval.persistence import run_outcome_digest
from repro.eval.runner import ExperimentSetup, build_crowdlearn, fast_config
from repro.serve.admission import create_admission_policy
from repro.serve.pool import SharedCrowdPool
from repro.serve.service import CrowdLearnService

#: The small world's test pool holds 60 images: 12 cycles of 5 use all of it.
_UNIT_SHAPE = {"n_cycles": 12, "cycles_per_context": 3, "budget_usd": 6.0}
FLEET_EVENTS = 4
FLEET_PRIORITIES = (2.0, 1.0, 1.5)
FLEET_BURST_IMAGES = 10


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs (``BENCHMARK.json`` says why).

    ``min_units`` units always run, enough for 100 steady cycles, so p90
    has ten samples beyond it; quality metrics and digests cover exactly
    these units, which makes them a function of the seed alone.
    """

    name: str
    overrides: dict = field(default_factory=dict)
    min_units: int = 10
    fleet: bool = False

    def config(self) -> CrowdLearnConfig:
        return dataclasses.replace(fast_config(), **_UNIT_SHAPE, **self.overrides)


#: Three workloads only: on a shared 2-vCPU host the speed drifts by
#: 20-50% over minutes, so steady numbers need long runs, and long runs
#: limit how many workloads one round of measurements can cover.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-loop"),
        Workload("no-retrain", {"mic_retrain": False}),
        # Retraining is off: on the small world, warm retrains of the
        # fleet's one-query batches roll back often enough to open an
        # event's breaker, and a quarantined event fails the run.
        Workload("fleet", {"mic_retrain": False}, min_units=3, fleet=True),
    )
}


@dataclass
class UnitResult:
    """What one unit produced and how long its cycles took."""

    name: str
    digest: str
    #: Wall time of every steady-state cycle: all but each deployment's or
    #: event's first, which fills the prediction cache and scores the guard
    #: holdout (1.3-2.4x a steady cycle, and 1 cycle in 12, so a p90 over
    #: all cycles would sit on the boundary between the two).
    cycle_seconds: list[float]
    #: The reference pass timed right after each of those cycles.
    reference_seconds: list[float]
    #: Wall time of the whole cycle loop, first cycles included, reference
    #: passes excluded.
    wall_seconds: float
    outcome: RunOutcome
    #: Cycles planned; those that raised, never ran or failed a check
    #: count as failed.  A failed unit-level check fails every cycle.
    attempted: int
    failed: int
    failures: list[str]
    #: Layer counts the program keeps itself (cache, guard, pool books).
    counts: dict[str, float]


def _finish(unit: UnitResult) -> UnitResult:
    if unit.failures and unit.failed == 0:
        unit.failed = unit.attempted
    return unit


def _labels_valid(outcome: CycleOutcome, n_classes: int) -> bool:
    labels = np.asarray(outcome.final_labels)
    return (
        labels.shape == np.asarray(outcome.true_labels).shape
        and bool(np.all((labels >= 0) & (labels < n_classes)))
    )


def _check_ledger(name: str, ledger, failures: list[str]) -> None:
    net = ledger.total_charged - ledger.total_refunded
    if abs(net - ledger.spent) > 1e-6 or ledger.spent > ledger.total + 1e-6:
        failures.append(
            f"{name}: budget books do not balance (charged {ledger.total_charged:.4f}"
            f" - refunded {ledger.total_refunded:.4f} vs spent {ledger.spent:.4f}"
            f" of {ledger.total:.4f})"
        )


def _cache_counts(cache) -> dict[str, float]:
    return {} if cache is None else dict(cache.stats())


def _guard_counts(outcome: RunOutcome) -> dict[str, float]:
    totals = outcome.guard_totals()
    return {"guard_snapshots": totals.snapshots, "guard_rollbacks": totals.rollbacks}


def run_deployment(
    setup: ExperimentSetup,
    config: CrowdLearnConfig,
    name: str,
    n_classes: int,
    reference: Callable[[], float],
) -> UnitResult:
    """One standalone deployment over a fresh stream named ``name``.

    Building the system is not measured.  ``reference`` is timed after
    every cycle.
    """
    system = build_crowdlearn(
        setup, config=config, platform_name=name, seed=setup.seeds.seed_for(name)
    )
    stream = setup.make_stream(name)
    outcome = RunOutcome()
    times: list[float] = []
    references: list[float] = []
    failures: list[str] = []
    failed = 0
    start = time.perf_counter()
    for cycle in stream:
        began = time.perf_counter()
        try:
            result = system.run_cycle(cycle)
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            failures.append(f"{name} cycle {cycle.index} raised {exc!r}")
            failed += len(stream) - cycle.index
            break
        times.append(time.perf_counter() - began)
        references.append(reference())
        outcome.append(result)
        if not _labels_valid(result, n_classes):
            failed += 1
            failures.append(f"{name} cycle {cycle.index}: invalid labels")
    wall = time.perf_counter() - start - sum(references)
    _check_ledger(name, system.ledger, failures)
    counts = {**_cache_counts(system.cache), **_guard_counts(outcome)}
    return _finish(UnitResult(name, run_outcome_digest(outcome), times[1:], references[1:],
                              wall, outcome, len(stream), failed, failures, counts))


def run_fleet(
    setup: ExperimentSetup,
    config: CrowdLearnConfig,
    name: str,
    n_classes: int,
    reference: Callable[[], float],
) -> UnitResult:
    """One in-memory fleet: submit, drive every event to drain, check books.

    Submitting the events is not measured; ``reference`` is timed after
    every tick.  The fleet has no
    ``serve_dir``: with one, every tick fsyncs a checkpoint, and on a
    shared disk that swung the tick p90 by a third between runs.
    """
    pool = SharedCrowdPool(
        capacity_per_cycle=max(1, FLEET_EVENTS * config.queries_per_cycle // 2),
        policy=create_admission_policy("fair-share"),
    )
    service = CrowdLearnService(setup, pool=pool)
    try:
        for i in range(FLEET_EVENTS):
            event_id = f"event-{i + 1:02d}"
            label = f"{name}-{event_id}"
            service.submit_event(
                event_id,
                seed=setup.seeds.seed_for(label),
                priority=FLEET_PRIORITIES[i % len(FLEET_PRIORITIES)],
                platform_name=label,
                stream_name=label,
            )
        times: list[float] = []
        references: list[float] = []
        reference_total = 0.0
        burst_done = False
        start = time.perf_counter()
        while True:
            if not burst_done and service.ticks >= FLEET_EVENTS:
                service.ingest_images(
                    "event-01",
                    n_images=FLEET_BURST_IMAGES,
                    burst_seed=setup.seeds.seed_for(f"{name}-burst"),
                )
                burst_done = True
            began = time.perf_counter()
            event_id = service.step()
            elapsed = time.perf_counter() - began
            if event_id is None:
                break
            passed = reference()
            reference_total += passed
            if service.registry.get(event_id).next_cycle > 1:
                times.append(elapsed)
                references.append(passed)
        wall = time.perf_counter() - start - reference_total
        failures: list[str] = []
        failed = 0
        unrun = 0
        outcome = RunOutcome()
        for deployment in sorted(service.registry.all(), key=lambda d: d.event_id):
            label = f"{name}/{deployment.event_id}"
            for result in deployment.outcome.cycles:
                outcome.append(result)
                if not _labels_valid(result, n_classes):
                    failed += 1
                    failures.append(f"{label} cycle {result.cycle_index}: invalid labels")
            if not deployment.done:
                unrun += deployment.cycles_remaining
                failures.append(f"{label}: did not drain")
            _check_ledger(label, deployment.system.ledger, failures)
        quarantined = service.quarantined_events()
        if quarantined:
            failures.append(f"{name}: quarantined events {quarantined}")
        if not service.pool.conserved():
            failures.append(f"{name}: pool books not conserved {service.pool.totals()}")
        counts = {
            **_cache_counts(service.cache),
            **_guard_counts(outcome),
            **{f"pool_{k}": v for k, v in service.pool.totals().items()},
        }
        return _finish(UnitResult(
            name, service.combined_digest(), times, references, wall, outcome,
            len(outcome.cycles) + unrun, failed + unrun, failures, counts,
        ))
    finally:
        service.close()
