"""Surge load generator for the multi-event serving layer.

Replays a deterministic disaster-surge timeline against a
:class:`~repro.serve.service.CrowdLearnService`: N events submitted
up-front with staggered priorities, a mid-run imagery burst into the
first event, and a shared crowd sized *below* aggregate demand so
admission, deferral and shedding all actually happen.  The run's
figures land in ``benchmarks/results/BENCH_serve.json``:

- **throughput** — sensing cycles per wall second across the fleet,
- **latency** — p50/p99/mean wall seconds per sensing cycle, and
  p50/mean wall seconds of the durable checkpoint that follows it,
- **quality** — per-event macro-F1 over fused labels,
- **books** — per-event and aggregate pool ledgers, checked against the
  conservation invariant (requested == admitted + shed + backlog), and
  money books checked against charged − refunded == spent,
- **digests** — per-event run-outcome digests plus the combined digest,
  the reproducibility anchor CI compares across runs.

``check_report`` is the ``--check`` gate: it returns a list of failure
strings (empty means pass) so CI can fail loudly on a broken invariant
rather than silently uploading a bad artifact.

**Chaos mode** (``--chaos``) is the blast-radius drill: the same fleet
runs twice — once clean, once with a permanent platform outage scoped to
the *last* event — and the report asserts that the faulted event ends
QUARANTINED while every healthy event's digest is byte-identical to the
clean run.  The chaos fleet is deliberately *unmetered*: under a metered
pool a quarantine frees capacity and legitimately changes healthy
events' grants, so byte-parity is only a theorem when events are
capacity-independent (the metered release/re-water-fill path has its own
conservation tests).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from repro.crowd.faults import FaultPlan
from repro.serve.admission import create_admission_policy
from repro.serve.pool import SharedCrowdPool
from repro.serve.service import CrowdLearnService

__all__ = ["run_loadgen", "resume_loadgen", "check_report", "write_report",
           "render_report", "chaos_plan", "DEFAULT_OUTPUT"]

DEFAULT_OUTPUT = Path("benchmarks/results/BENCH_serve.json")

#: Priority cycle for submitted events: a hot event, a routine one, a
#: middling one — enough spread that priority/deadline policies differ
#: visibly from fair-share.
_PRIORITIES = (2.0, 1.0, 1.5)


def chaos_plan() -> FaultPlan:
    """The drill's event-scoped fault: a permanent platform outage.

    Every post attempt raises, so the faulted event fails every tick it
    posts in, trips its breaker, fails both recovery probes and lands in
    terminal quarantine — the full degradation ladder in one plan.
    """
    return FaultPlan(outage_windows=((0, 1 << 30),))


def _percentiles(values: list[float]) -> dict[str, float]:
    import numpy as np

    if not values:
        return {"p50": 0.0, "p99": 0.0, "mean": 0.0}
    return {
        "p50": float(np.percentile(values, 50)),
        "p99": float(np.percentile(values, 99)),
        "mean": float(np.mean(values)),
    }


def build_service(
    setup,
    n_events: int = 3,
    capacity: int | None = None,
    policy: str = "fair-share",
    max_backlog: int | None = None,
    serve_dir: str | Path | None = None,
    unmetered: bool = False,
    fault_plans: dict[str, FaultPlan] | None = None,
) -> CrowdLearnService:
    """Assemble the surge fleet: N events over one under-provisioned crowd.

    ``capacity=None`` sizes the shared pool at half the fleet's fresh
    per-window demand (at least one slot), which guarantees contention —
    the whole point of the bench.  Pass an explicit capacity (or ``0``
    for a fully saturated crowd) to override, or ``unmetered=True`` for
    the capacity-independent pool the chaos drill's byte-parity claim
    needs.  ``fault_plans`` maps event ids to event-scoped
    :class:`~repro.crowd.faults.FaultPlan`\\ s.
    """
    if n_events < 1:
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    if unmetered:
        pool = SharedCrowdPool()
    else:
        if capacity is None:
            demand = n_events * setup.config.queries_per_cycle
            capacity = max(1, demand // 2)
        pool = SharedCrowdPool(
            capacity_per_cycle=capacity,
            policy=create_admission_policy(policy),
            max_backlog=max_backlog,
        )
    service = CrowdLearnService(setup, pool=pool, serve_dir=serve_dir)
    for i in range(n_events):
        event_id = f"event-{i + 1:02d}"
        service.submit_event(
            event_id,
            priority=_PRIORITIES[i % len(_PRIORITIES)],
            fault_plan=(fault_plans or {}).get(event_id),
        )
    return service


def drive(
    service: CrowdLearnService,
    burst_images: int = 10,
    burst_seed: int = 1234,
    burst_after_ticks: int | None = None,
    crash_at_tick: int | None = None,
) -> int:
    """Run the surge timeline to drain; returns ticks executed.

    The imagery burst lands on the first event once ``burst_after_ticks``
    cycles have run (default: one full fleet round); ``burst_images=0``
    is a plain drain.  ``crash_at_tick`` SIGKILLs the process after that
    many ticks — the crash half of the serve crash/recovery drill; a
    supervisor is expected to ``resume``.

    Both thresholds compare against ``service.ticks`` — the *global*
    cycle count, restored on resume — so a resumed drive continues the
    original timeline instead of restarting it.
    """
    if burst_after_ticks is None:
        burst_after_ticks = len(service.registry)
    executed = 0
    burst_done = burst_images <= 0
    while True:
        if crash_at_tick is not None and service.ticks >= crash_at_tick:
            import os
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        if not burst_done and service.ticks >= burst_after_ticks:
            first_event = min(d.event_id for d in service.registry.all())
            service.ingest_images(
                first_event, n_images=burst_images, burst_seed=burst_seed
            )
            burst_done = True
        if service.step() is None:
            return executed
        executed += 1


def build_report(
    service: CrowdLearnService,
    wall_seconds: float,
    meta: dict[str, Any],
    clean_digests: dict[str, str] | None = None,
) -> dict[str, Any]:
    """Collect the drained fleet's figures into the bench report.

    With ``clean_digests`` (the chaos drill's no-fault reference run),
    the report gains a ``chaos`` section comparing every healthy event's
    digest against its clean twin — the blast-radius assertion.
    """
    events: dict[str, Any] = {}
    all_walls: list[float] = []
    all_saves: list[float] = []
    charged = refunded = spent = 0.0
    quarantined = service.quarantined_events()
    for deployment in service.registry.all():
        status = service.event_status(deployment.event_id)
        events[deployment.event_id] = {
            "macro_f1": status.macro_f1,
            "cycles": status.n_cycles,
            "grants": deployment.grants,
            "pool": status.pool,
            "budget_cents": status.budget,
            "latency_seconds": status.latency_seconds,
            "checkpoint_seconds": status.checkpoint_seconds,
            "health": status.health,
        }
        all_walls.extend(deployment.cycle_wall_seconds)
        all_saves.extend(deployment.checkpoint_wall_seconds)
        charged += status.budget["charged_cents"]
        refunded += status.budget["refunded_cents"]
        spent += status.budget["spent_cents"]
    saves = _percentiles(all_saves)
    totals = service.pool.totals()
    drained = all(
        d.done or d.event_id in quarantined
        for d in service.registry.all()
    )
    report = {
        "meta": meta,
        "service": {
            "ticks": service.ticks,
            "wall_seconds": wall_seconds,
            "events_per_second": (
                len(events) / wall_seconds if wall_seconds > 0 else 0.0
            ),
            "cycles_per_second": (
                service.ticks / wall_seconds if wall_seconds > 0 else 0.0
            ),
            "cycle_latency_seconds": _percentiles(all_walls),
            "checkpoint_latency_seconds": {
                "p50": saves["p50"], "mean": saves["mean"],
            },
            "drained": drained,
            "quarantined": quarantined,
        },
        "events": events,
        "pool": {
            "totals": totals,
            "conserved": service.pool.conserved(),
            "contended": (totals["deferred"] + totals["shed"]) > 0,
            "per_event_conserved": {
                event_id: led.conserved()
                for event_id, led in sorted(service.pool.ledgers.items())
            },
        },
        "budget_cents": {
            "charged": charged,
            "refunded": refunded,
            "spent": spent,
            "conserved": abs((charged - refunded) - spent) < 1e-6,
        },
        "digests": {
            "per_event": service.digests(),
            "combined": service.combined_digest(),
        },
    }
    if clean_digests is not None:
        faulted = meta.get("faulted_event")
        digests = report["digests"]["per_event"]
        parity = {
            event_id: digests.get(event_id) == digest
            for event_id, digest in sorted(clean_digests.items())
            if event_id != faulted
        }
        report["chaos"] = {
            "faulted_event": faulted,
            "quarantined": quarantined,
            "quarantine_reasons": {
                event_id: (
                    service.health[event_id].quarantine_reason
                    or "breaker open"
                )
                for event_id in quarantined
            },
            "healthy_parity": parity,
            "blast_radius_contained": (
                faulted in quarantined
                and all(parity.values())
                and set(quarantined) <= {faulted}
            ),
            "clean_digests": dict(sorted(clean_digests.items())),
        }
    return report


def faulted_event_id(n_events: int) -> str:
    """The chaos drill's victim: the last event, so the imagery burst
    (which targets the first) lands on a healthy deployment."""
    return f"event-{n_events:02d}"


def reference_digests(
    setup,
    n_events: int = 3,
    burst_images: int = 10,
    burst_seed: int = 1234,
) -> dict[str, str]:
    """Digests of the clean (no-fault, unmetered) twin of the chaos fleet."""
    reference = build_service(setup, n_events=n_events, unmetered=True)
    drive(reference, burst_images=burst_images, burst_seed=burst_seed)
    digests = reference.digests()
    reference.close()
    return digests


def run_loadgen(
    seed: int = 0,
    fast: bool = True,
    n_events: int = 3,
    capacity: int | None = None,
    policy: str = "fair-share",
    max_backlog: int | None = None,
    burst_images: int = 10,
    burst_seed: int = 1234,
    serve_dir: str | Path | None = None,
    crash_at_tick: int | None = None,
    chaos: bool = False,
) -> dict[str, Any]:
    """One full surge run: build, drive to drain, report.

    ``chaos=True`` runs the blast-radius drill instead of the metered
    surge: the fleet with a permanent platform outage scoped to the last
    event, then the clean reference fleet (for parity digests).  The
    chaos fleet is unmetered — see the module docstring.
    """
    from repro.eval.runner import prepare

    setup = prepare(seed=seed, fast=fast)
    service = build_service(
        setup,
        n_events=n_events,
        capacity=capacity,
        policy=policy,
        max_backlog=max_backlog,
        serve_dir=serve_dir,
        unmetered=chaos,
        fault_plans=(
            {faulted_event_id(n_events): chaos_plan()} if chaos else None
        ),
    )
    return _drive_and_report(service, burst_images, burst_seed, crash_at_tick)


def resume_loadgen(
    serve_dir: str | Path,
    burst_images: int = 10,
    burst_seed: int = 1234,
    crash_at_tick: int | None = None,
) -> dict[str, Any]:
    """Resume a crashed durable surge run, drive it to drain, report."""
    return _drive_and_report(
        CrowdLearnService.resume(serve_dir),
        burst_images, burst_seed, crash_at_tick, resumed=True,
    )


def _drive_and_report(
    service: CrowdLearnService,
    burst_images: int,
    burst_seed: int,
    crash_at_tick: int | None,
    resumed: bool = False,
) -> dict[str, Any]:
    """Drive the fleet to drain, then report on it and close it.

    A resumed fleet skips the burst if it landed before the crash.  A
    chaos run announces itself in the manifest — events with fault
    plans — so the clean reference digests are derived from the same
    manifest whether the run is fresh or resumed (the reference run is
    deterministic and fault-free).
    """
    already_burst = any(d.bursts for d in service.registry.all())
    started = time.perf_counter()
    drive(
        service,
        burst_images=0 if already_burst else burst_images,
        burst_seed=burst_seed,
        crash_at_tick=crash_at_tick,
    )
    wall_seconds = time.perf_counter() - started
    faulted = [
        entry["event_id"]
        for entry in service._manifest["events"]
        if entry["fault_plan"]
    ]
    clean_digests = None
    if faulted:
        clean_digests = reference_digests(
            service.setup,
            n_events=len(service.registry),
            burst_images=burst_images,
            burst_seed=burst_seed,
        )
    meta = {
        "bench": "serve-loadgen",
        "seed": service.setup.seed,
        "fast": service.setup.fast,
        "n_events": len(service.registry),
        "capacity_per_cycle": service.pool.capacity_per_cycle,
        "policy": service.pool.policy.name,
        "max_backlog": service.pool.max_backlog,
        "burst": {"images": burst_images, "seed": burst_seed},
        "durable": service.durable,
        "chaos": bool(faulted),
        "faulted_event": faulted[0] if faulted else None,
    }
    if resumed:
        meta["resumed"] = True
    report = build_report(
        service, wall_seconds, meta, clean_digests=clean_digests
    )
    service.close()
    return report


def check_report(
    report: dict[str, Any], p99_gate_seconds: float | None = None
) -> list[str]:
    """The ``--check`` gates; returns failure strings (empty = pass).

    Gates: every event drained (quarantined events count as handled, not
    drained-in-place); pool books conserved per event and in aggregate;
    contention actually occurred (a surge bench that never defers or
    sheds is not testing backpressure — skipped in chaos mode, whose
    fleet is deliberately unmetered); money books balance; optionally
    p99 cycle latency under ``p99_gate_seconds``.  Chaos reports add the
    blast-radius gates: the faulted event (and only it) quarantined, and
    every healthy event's digest byte-identical to the clean run.
    """
    failures: list[str] = []
    chaos = report.get("chaos")
    if not report["service"]["drained"]:
        failures.append("fleet did not drain: some events have cycles left")
    if not report["pool"]["conserved"]:
        failures.append(
            "pool conservation violated: requested != admitted + shed + "
            "backlog + quarantined in aggregate "
            f"({report['pool']['totals']})"
        )
    for event_id, ok in report["pool"]["per_event_conserved"].items():
        if not ok:
            failures.append(
                f"pool conservation violated for {event_id}: "
                f"{report['events'][event_id]['pool']}"
            )
    if chaos is None and not report["pool"]["contended"]:
        failures.append(
            "no contention observed (deferred + shed == 0); the pool was "
            "over-provisioned and backpressure went untested"
        )
    if not report["budget_cents"]["conserved"]:
        failures.append(
            f"budget books do not balance: {report['budget_cents']}"
        )
    if chaos is not None:
        faulted = chaos["faulted_event"]
        if faulted not in chaos["quarantined"]:
            failures.append(
                f"chaos drill: faulted event {faulted} never reached "
                f"QUARANTINED (quarantined: {chaos['quarantined']})"
            )
        extra = sorted(set(chaos["quarantined"]) - {faulted})
        if extra:
            failures.append(
                f"chaos drill: blast radius escaped — healthy events "
                f"{extra} were quarantined too"
            )
        broken = sorted(
            event_id
            for event_id, ok in chaos["healthy_parity"].items()
            if not ok
        )
        if broken:
            failures.append(
                "chaos drill: healthy events diverged from the clean "
                f"run: {broken}"
            )
    if p99_gate_seconds is not None:
        p99 = report["service"]["cycle_latency_seconds"]["p99"]
        if p99 > p99_gate_seconds:
            failures.append(
                f"p99 cycle latency {p99:.3f}s exceeds the "
                f"{p99_gate_seconds:.3f}s gate"
            )
    return failures


def write_report(report: dict[str, Any], path: str | Path) -> Path:
    """Pretty-print the report to ``path`` (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def render_report(report: dict[str, Any]) -> str:
    """Human-readable summary for the CLI."""
    service = report["service"]
    pool = report["pool"]["totals"]
    lines = [
        "serve loadgen "
        f"({report['meta']['n_events']} events, "
        f"capacity {report['meta']['capacity_per_cycle']}/window, "
        f"policy {report['meta']['policy']})",
        f"  ticks {service['ticks']}  "
        f"cycles/s {service['cycles_per_second']:.2f}  "
        f"p50 {service['cycle_latency_seconds']['p50'] * 1e3:.0f}ms  "
        f"p99 {service['cycle_latency_seconds']['p99'] * 1e3:.0f}ms  "
        f"checkpoint p50 "
        f"{service['checkpoint_latency_seconds']['p50'] * 1e3:.0f}ms",
        f"  pool: requested {pool['requested']}  admitted "
        f"{pool['admitted']}  deferred {pool['deferred']}  shed "
        f"{pool['shed']}  conserved "
        f"{'yes' if report['pool']['conserved'] else 'NO'}",
    ]
    quarantined = set(report["service"].get("quarantined", []))
    for event_id, entry in sorted(report["events"].items()):
        marker = "  [QUARANTINED]" if event_id in quarantined else ""
        lines.append(
            f"  {event_id}: F1 {entry['macro_f1']:.3f}  "
            f"cycles {entry['cycles']}  "
            f"admitted {entry['pool']['admitted']}  "
            f"deferred {entry['pool']['deferred']}  "
            f"shed {entry['pool']['shed']}{marker}"
        )
    chaos = report.get("chaos")
    if chaos is not None:
        contained = chaos["blast_radius_contained"]
        lines.append(
            f"  chaos: faulted {chaos['faulted_event']}  "
            f"blast radius {'contained' if contained else 'ESCAPED'}  "
            f"healthy parity "
            f"{sum(chaos['healthy_parity'].values())}"
            f"/{len(chaos['healthy_parity'])}"
        )
    lines.append(f"  combined digest {report['digests']['combined'][:16]}…")
    return "\n".join(lines)
