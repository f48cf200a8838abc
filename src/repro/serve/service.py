"""The serving core: N interleaved sensing loops over one shared crowd.

:class:`CrowdLearnService` owns a global virtual-time event heap.  Each
entry is ``(due_time, event_id, seq)`` — due time first, event id as the
stable tie-break, a monotonic sequence number last — so the interleaving
of N sensing loops is a pure function of the submitted events, never of
wall clock or dict order.  Virtual time is bucketed into *sensing
windows* of ``config.cycle_seconds``; at each window boundary the
:class:`~repro.serve.pool.SharedCrowdPool` fixes per-event quotas from
the full request set, and every cycle executed inside the window is
metered against them.

Durable mode (``serve_dir``) layers the PR 6 crash-tolerance machinery
per event — one checkpoint + write-ahead journal pair each, snapshot and
rotated after every cycle — plus a service-level append-only journal
(``serve.journal``) recording window rollovers, admissions and imagery
bursts, each with a post-mutation pool snapshot.  :meth:`resume`
rebuilds the whole fleet from the manifest, replays each event's partial
cycle through its own journal, restores the pool from the last service
record, and reconstructs the at-most-one admission record a crash can
swallow (killed between an event's checkpoint and the service append).

Service-level resilience (this layer's blast-radius guarantees):

- **Bulkheads** — every tick runs inside :meth:`step`'s isolation
  boundary.  An exception escaping one event's cycle quarantines *that
  event only*: its unused grant and waiting backlog move to the pool's
  ``quarantined`` bucket (freed capacity re-enters the same window's
  water-fill), its heap entries are parked, and every other event keeps
  draining.
- **Circuit breakers** (:mod:`repro.serve.breaker`) — each event's
  completed ticks feed a deterministic closed→open→half-open machine;
  an open breaker parks the event and schedules a cooldown probe on the
  virtual-time heap.  Breaker and health state ride in every journal
  record, so :meth:`resume` rebuilds them bit-for-bit.
- **Degradation ladder** (:mod:`repro.serve.health`) — flaky-but-alive
  events shrink to DEGRADED batches or BROWNOUT committee-only cycles
  before they ever earn a quarantine, and climb back with hysteresis.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import os
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.cache import PredictionCache
from repro.core.system import CrowdLearnSystem
from repro.crowd.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.data.dataset import build_dataset
from repro.data.stream import SensingCycleStream
from repro.eval.persistence import run_outcome_digest
from repro.serve.deployment import Deployment
from repro.serve.health import EventHealth, HealthPolicy, tick_failed
from repro.serve.pool import AdmissionRequest, SharedCrowdPool
from repro.serve.registry import EventRegistry
from repro.telemetry.runtime import Telemetry, use_telemetry

__all__ = ["CrowdLearnService", "EventStatus", "ServeJournalError"]

_MANIFEST_NAME = "serve.json"
_JOURNAL_NAME = "serve.journal"


class ServeJournalError(RuntimeError):
    """The service journal is unreadable or inconsistent with the fleet."""


@dataclasses.dataclass(frozen=True)
class EventStatus:
    """One event's externally visible state."""

    event_id: str
    done: bool
    next_cycle: int
    n_cycles: int
    macro_f1: float
    pool: dict[str, int]
    budget: dict[str, float]
    latency_seconds: dict[str, float]
    #: p50/mean wall seconds of the durable checkpoint after each cycle,
    #: which ``latency_seconds`` leaves out (zeros in memory mode).
    checkpoint_seconds: dict[str, float]
    health: dict[str, Any] | None = None

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def _record_line(record: dict) -> str:
    """Canonical JSON line with an embedded content hash."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return json.dumps(
        {"record": record, "sha256": digest},
        sort_keys=True, separators=(",", ":"),
    )


def _read_serve_journal(path: Path, repair: bool = False) -> list[dict]:
    """All intact records; a torn tail line is tolerated, torn middles not.

    With ``repair``, the torn tail (a crash mid-append) is truncated away
    so the reopened file can take live appends without concatenating a
    new record onto the garbage.
    """
    records: list[dict] = []
    raw = path.read_bytes()
    lines = raw.decode("utf-8").splitlines(keepends=True)
    good_bytes = 0
    for i, line in enumerate(lines):
        try:
            entry = json.loads(line)
            body = json.dumps(
                entry["record"], sort_keys=True, separators=(",", ":")
            )
            if hashlib.sha256(body.encode()).hexdigest() != entry["sha256"]:
                raise ValueError("checksum mismatch")
        except (ValueError, KeyError, TypeError) as exc:
            if i == len(lines) - 1:
                break  # torn tail from a crash mid-append
            raise ServeJournalError(
                f"corrupt serve journal record at line {i + 1} of {path}"
            ) from exc
        records.append(entry["record"])
        good_bytes += len(line.encode("utf-8"))
    if repair:
        if good_bytes < len(raw):
            with open(path, "r+b") as fh:
                fh.truncate(good_bytes)
        elif raw and not raw.endswith(b"\n"):
            # Final record intact but its newline lost mid-crash.
            with open(path, "ab") as fh:
                fh.write(b"\n")
    return records


class CrowdLearnService:
    """Runs N concurrent disaster deployments over one shared crowd.

    Parameters
    ----------
    setup:
        The shared evaluation world
        (:class:`~repro.eval.runner.ExperimentSetup`): one crowd
        population, one trained base committee, one test pool.
    pool:
        Capacity arbiter; the default is unmetered (single-tenant parity
        mode).
    serve_dir:
        Durable mode: per-event checkpoints/journals plus the service
        manifest and journal live here.
    fsync:
        Journal fsync policy forwarded to every event journal
        (``always``/``rotate``/``never``).
    instrument:
        Give each event a live :class:`Telemetry` pipeline labelled
        ``{"event": <id>}`` (disjoint per event).  Off by default — the
        no-op pipeline keeps served runs byte-identical to standalone
        ones.
    health_policy:
        Thresholds for the per-event breaker and degradation ladder
        (:class:`~repro.serve.health.HealthPolicy`).  Always on: a
        healthy event's ladder never moves and never caps a grant, so
        fault-free runs stay byte-identical.
    """

    def __init__(
        self,
        setup,
        pool: SharedCrowdPool | None = None,
        serve_dir: str | Path | None = None,
        fsync: str = "always",
        instrument: bool = False,
        health_policy: HealthPolicy | None = None,
    ) -> None:
        self.setup = setup
        self.pool = pool if pool is not None else SharedCrowdPool()
        self.registry = EventRegistry()
        self.fsync = fsync
        self.instrument = instrument
        self.cycle_seconds = float(setup.config.cycle_seconds)
        self.health_policy = (
            health_policy if health_policy is not None else HealthPolicy()
        )
        #: Per-event breaker + ladder state, keyed by event id.
        self.health: dict[str, EventHealth] = {}
        self.telemetries: dict[str, Telemetry] = {}
        self._heap: list[tuple[float, str, int]] = []
        self._seq = 0
        self.ticks = 0
        self._drained: dict[str, bool] = {}
        #: Shared physical cache; each event gets a namespaced view.
        self.cache = PredictionCache(
            max_pools=setup.config.cache_max_pools,
            max_features=setup.config.cache_max_features,
        )
        self.serve_dir = Path(serve_dir) if serve_dir is not None else None
        self._journal_fh = None
        self._manifest: dict[str, Any] = {
            "version": 1,
            "seed": setup.seed,
            "fast": setup.fast,
            "fsync": fsync,
            "capacity_per_cycle": self.pool.capacity_per_cycle,
            "policy": self.pool.policy.name,
            "max_backlog": self.pool.max_backlog,
            "health_policy": self.health_policy.as_dict(),
            "events": [],
        }
        if self.serve_dir is not None:
            self.serve_dir.mkdir(parents=True, exist_ok=True)
            self._journal_fh = open(
                self.serve_dir / _JOURNAL_NAME, "a", encoding="utf-8"
            )

    # -- internal plumbing -------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.serve_dir is not None

    def _next_window(self) -> int:
        """The window a newly submitted event starts in."""
        return 0 if self.pool.window < 0 else self.pool.window + 1

    def _due(self, deployment: Deployment) -> float:
        return (
            (deployment.start_window + deployment.next_cycle)
            * self.cycle_seconds
        )

    def _push(self, deployment: Deployment) -> None:
        heapq.heappush(
            self._heap,
            (self._due(deployment), deployment.event_id, self._seq),
        )
        self._seq += 1

    def _append_journal(self, record: dict) -> None:
        if self._journal_fh is None:
            return
        self._journal_fh.write(_record_line(record) + "\n")
        if self.fsync == "always":
            self._journal_fh.flush()
            os.fsync(self._journal_fh.fileno())

    def _write_manifest(self) -> None:
        if self.serve_dir is None:
            return
        path = self.serve_dir / _MANIFEST_NAME
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self._manifest, indent=2, sort_keys=True))
        os.replace(tmp, path)

    def _event_paths(self, event_id: str) -> tuple[Path, Path]:
        assert self.serve_dir is not None
        return (
            self.serve_dir / f"event-{event_id}.ckpt",
            self.serve_dir / f"event-{event_id}.journal",
        )

    def _health(self, event_id: str) -> EventHealth:
        """The event's health record (created on first touch)."""
        try:
            return self.health[event_id]
        except KeyError:
            health = EventHealth(self.health_policy)
            self.health[event_id] = health
            return health

    def _health_map(self) -> dict[str, dict]:
        """JSON-safe per-event health snapshots (journaled per record)."""
        return {
            event_id: health.snapshot()
            for event_id, health in sorted(self.health.items())
        }

    def _count(self, event_id: str, name: str, help_text: str) -> None:
        telemetry = self.telemetries.get(event_id)
        if telemetry is not None:
            telemetry.counter(name, help=help_text).inc()

    def _telemetry_for(self, event_id: str) -> Telemetry | None:
        if not self.instrument:
            return None
        telemetry = Telemetry(base_labels={"event": event_id})
        self.telemetries[event_id] = telemetry
        return telemetry

    def _wire_pool_observer(self, deployment: Deployment) -> None:
        """Meter the event's actual posts into its pool ledger."""
        event_id = deployment.event_id
        workers_per_query = deployment.system.platform.workers_per_query
        pool = self.pool

        def on_post(result) -> None:
            pool.note_post(event_id, workers_per_query)

        deployment.system.platform.on_post = on_post

    # -- event lifecycle ---------------------------------------------------

    def submit_event(
        self,
        event_id: str,
        seed: int | None = None,
        n_cycles: int | None = None,
        priority: float = 1.0,
        platform_name: str | None = None,
        stream_name: str | None = None,
        system: CrowdLearnSystem | None = None,
        stream: SensingCycleStream | None = None,
        start_window: int | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> Deployment:
        """Register a new disaster event and schedule its first cycle.

        With no explicit ``system``/``stream``, both are built from the
        shared setup under per-event names — platform RNG
        ``platform-event-<id>``, stream RNG ``stream-event-<id>``, and a
        per-event root seed derived from the event id — so two events'
        random streams are independent by construction and independent
        of submission order (the
        :class:`~repro.utils.rng.SeedSequencer` hashes names, not call
        order).

        ``fault_plan`` scopes chaos to this event alone: the plan is
        armed on the event's own platform with an RNG stream derived
        from ``faults-event-<id>`` and recorded in the manifest, so a
        resumed fleet re-arms it deterministically.  Other events never
        see the injector — that isolation is what the blast-radius drill
        asserts.
        """
        if not event_id or any(c in event_id for c in "/\\ \t\n"):
            raise ValueError(
                f"event_id must be a non-empty path-safe token, "
                f"got {event_id!r}"
            )
        if event_id in self.registry:
            raise ValueError(f"event {event_id!r} is already registered")
        setup = self.setup
        platform_name = platform_name or f"event-{event_id}"
        stream_name = stream_name or f"event-{event_id}"
        if seed is None:
            seed = setup.seeds.seed_for(f"event-{event_id}")
        telemetry = self._telemetry_for(event_id)
        injector = None
        if fault_plan is not None and not fault_plan.is_noop():
            injector = FaultInjector(
                plan=fault_plan,
                rng=setup.seeds.get(f"faults-event-{event_id}"),
            )
        if system is None:
            from repro.eval.runner import build_crowdlearn

            system = build_crowdlearn(
                setup,
                platform_name=platform_name,
                telemetry=telemetry,
                seed=seed,
                event_id=event_id,
                cache=self.cache,
                faults=injector,
            )
        elif injector is not None:
            system.platform.faults = injector
        if stream is None:
            stream = SensingCycleStream(
                setup.test_set,
                n_cycles=n_cycles or setup.config.n_cycles,
                images_per_cycle=setup.config.images_per_cycle,
                cycles_per_context=setup.config.cycles_per_context,
                rng=setup.seeds.get(f"stream-{stream_name}"),
            )
        if start_window is None:
            start_window = self._next_window()
        checkpoint_path = journal = None
        if self.durable:
            from repro.eval.journal import CycleJournal

            checkpoint_path, journal_path = self._event_paths(event_id)
            journal = CycleJournal.create(
                journal_path,
                fsync=self.fsync,
                crash_injector=system.platform.faults,
            )
        deployment = Deployment(
            event_id=event_id,
            system=system,
            stream=stream,
            priority=priority,
            start_window=start_window,
            checkpoint_path=checkpoint_path,
            journal=journal,
        )
        self.registry.add(deployment)
        self._health(event_id)
        self._wire_pool_observer(deployment)
        self._push(deployment)
        self._manifest["events"].append(
            {
                "event_id": event_id,
                "seed": int(seed),
                "priority": float(priority),
                "n_cycles": len(stream),
                "start_window": int(start_window),
                "platform_name": platform_name,
                "stream_name": stream_name,
                "fault_plan": (
                    None if fault_plan is None or fault_plan.is_noop()
                    else fault_plan.as_dict()
                ),
            }
        )
        self._write_manifest()
        return deployment

    def ingest_images(
        self,
        event_id: str,
        images=None,
        n_images: int | None = None,
        burst_seed: int | None = None,
    ) -> int:
        """Feed a burst of fresh imagery into a live event.

        Either pass ``images`` directly, or ``(n_images, burst_seed)`` to
        generate a deterministic synthetic burst — the journaled,
        crash-replayable form the load generator uses.  Returns the
        number of sensing cycles the burst added.
        """
        deployment = self.registry.get(event_id)
        if images is None:
            if n_images is None or burst_seed is None:
                raise ValueError(
                    "pass images, or n_images and burst_seed to generate"
                )
            images = list(
                build_dataset(
                    n_images=n_images,
                    rng=np.random.default_rng(burst_seed),
                )
            )
        was_done = deployment.done
        added = deployment.ingest(images, burst_seed=burst_seed)
        if added and was_done:
            self._drained.pop(event_id, None)
            self._push(deployment)
        self._append_journal(
            {
                "kind": "ingest",
                "event": event_id,
                "n_images": len(images),
                "burst_seed": -1 if burst_seed is None else int(burst_seed),
                "burst_index": len(deployment.bursts) - 1,
                "n_cycles_after": deployment.n_cycles,
                "n_images_total_after": len(deployment.stream._images),
                "pool": self.pool.snapshot(),
                "health": self._health_map(),
            }
        )
        return added

    # -- the scheduler loop ------------------------------------------------

    def step(self) -> str | None:
        """Run the next due sensing cycle; returns its event id.

        ``None`` when every event has drained (or is parked with its
        probe budget spent).  Window rollovers happen here: the first
        tick whose due time crosses into a new window fixes that
        window's quotas from *all* events due in it, in event-id order.

        Every tick runs inside the service's **bulkhead**: an exception
        escaping the cycle quarantines that event (grant and backlog
        released to the pool, heap entries parked, breaker forced open)
        and the step still returns normally — the other events' ticks
        are untouched.  :class:`~repro.crowd.faults.InjectedCrash` is
        deliberately *not* caught: crash drills must kill the process,
        not park an event.
        """
        while self._heap:
            due, event_id, _seq = heapq.heappop(self._heap)
            deployment = self.registry.get(event_id)
            if deployment.done:
                continue  # stale entry (e.g. rescheduled after a burst)
            health = self._health(event_id)
            window = int(due // self.cycle_seconds)
            if window > self.pool.window:
                self._begin_window(window)
            if health.state == "quarantined":
                # A parked event's only heap entry is its scheduled
                # recovery probe; half-open the breaker before admitting.
                if not health.begin_probe(window):
                    continue  # stale entry; probe budget already spent
                self._count(
                    event_id, "breaker_half_open_total",
                    "recovery probes started by the circuit breaker",
                )
            decision = self.pool.admit(
                event_id, deployment.demand(), deployment.max_servable()
            )
            grant = health.cap_grant(decision.granted)
            if grant < decision.granted:
                # The ladder shaved the batch; the difference goes back
                # to this window's water-fill and the event's backlog.
                self.pool.release(
                    event_id, decision.granted - grant, requeue=True
                )
            telemetry = self.telemetries.get(event_id)
            state_before = health.state
            try:
                if telemetry is not None:
                    with use_telemetry(telemetry):
                        outcome_cycle = deployment.run_next_cycle(grant)
                else:
                    outcome_cycle = deployment.run_next_cycle(grant)
            except InjectedCrash:
                raise
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # noqa: BLE001 - the bulkhead boundary
                self._trip(deployment, window, grant, exc)
                return event_id
            self.ticks += 1
            failed = tick_failed(outcome_cycle)
            state = health.observe(failed, window)
            self._append_journal(
                {
                    "kind": "tick",
                    "event": event_id,
                    "cycle": deployment.next_cycle - 1,
                    "window": window,
                    "granted": grant,
                    "deferred": decision.deferred,
                    "shed": decision.shed,
                    "failed": failed,
                    "pool": self.pool.snapshot(),
                    "health": self._health_map(),
                }
            )
            if telemetry is not None:
                counter = telemetry.counter(
                    "serve_queries_deferred_total",
                    help="queries pushed to a later window by backpressure",
                )
                counter.inc(decision.deferred)
                if failed:
                    telemetry.counter(
                        "health_failed_ticks_total",
                        help="completed ticks carrying a failure signal",
                    ).inc()
                if state != state_before:
                    telemetry.counter(
                        "health_transitions_total",
                        help="degradation-ladder state changes",
                    ).inc()
            if deployment.done:
                self._finish_event(deployment)
            elif state == "quarantined":
                self._count(
                    event_id, "breaker_opened_total",
                    "breakers opened (failure rate or bulkhead trip)",
                )
                self._park(deployment, window)
            else:
                if state_before == "quarantined" and state != "quarantined":
                    self._count(
                        event_id, "breaker_closed_total",
                        "breakers closed by a clean recovery probe",
                    )
                self._push(deployment)
            return event_id
        return None

    def _trip(
        self, deployment: Deployment, window: int, grant: int, exc: Exception
    ) -> None:
        """Bulkhead trip: the tick raised instead of completing.

        The cycle never advanced, so the event's grant is unused and its
        in-memory system state may be mid-cycle dirty — re-running the
        same deterministic cycle would fail identically, so the breaker
        is forced open with its probe budget spent (no re-admission)
        and the event is parked for good.
        """
        event_id = deployment.event_id
        health = self._health(event_id)
        reason = f"tick raised {type(exc).__name__}: {exc}"
        health.trip(window, reason)
        self._count(
            event_id, "breaker_opened_total",
            "breakers opened (failure rate or bulkhead trip)",
        )
        if grant > 0:
            self.pool.release(event_id, grant, requeue=False)
        self._park(deployment, window)

    def _park(self, deployment: Deployment, window: int) -> None:
        """Move a quarantined event off the schedule.

        Its waiting backlog joins the pool's ``quarantined`` bucket, the
        remaining budget it can no longer spend is recorded for the
        operator, and — when the breaker still has probe budget — one
        recovery probe is scheduled on the virtual-time heap.
        """
        event_id = deployment.event_id
        health = self._health(event_id)
        parked_backlog = self.pool.park(event_id)
        self._count(
            event_id, "health_quarantined_total",
            "events parked by the bulkhead or breaker",
        )
        self._schedule_probe(deployment)
        record = {
            "kind": "quarantine",
            "event": event_id,
            "window": window,
            "reason": health.quarantine_reason,
            "parked_backlog": parked_backlog,
            "released_budget_cents": deployment.releasable_budget_cents(),
            "probe_window": health.breaker.probe_window(),
            "pool": self.pool.snapshot(),
            "health": self._health_map(),
        }
        if deployment.journal is not None:
            from repro.eval.journal import wal_tail_summary

            # Post-mortem of the event's own WAL: how far the aborted
            # cycle got and whether a crowd post is in doubt.
            record["wal"] = wal_tail_summary(deployment.journal.path)
        self._append_journal(record)

    def _schedule_probe(self, deployment: Deployment) -> None:
        """Queue the breaker's half-open probe, re-anchoring the event.

        A parked event's virtual schedule stops; when the cooldown ends
        its next cycle must run in the probe window, not at its long-past
        original due time.  ``start_window`` is re-anchored so
        ``start_window + next_cycle == probe_window`` (and the manifest
        is rewritten so a resumed fleet re-anchors identically), then the
        probe entry is pushed like any other tick.
        """
        health = self._health(deployment.event_id)
        probe_window = health.breaker.probe_window()
        if probe_window is None:
            return  # probe budget spent: parked for good
        deployment.start_window = probe_window - deployment.next_cycle
        for entry in self._manifest["events"]:
            if entry["event_id"] == deployment.event_id:
                entry["start_window"] = int(deployment.start_window)
        self._write_manifest()
        self._push(deployment)

    def _begin_window(self, window: int) -> None:
        requests = []
        for deployment in self.registry.active():
            health = self._health(deployment.event_id)
            if (
                health.state == "quarantined"
                and health.breaker.probe_window() is None
            ):
                continue  # parked for good: no requests, no quota
            led = self.pool.ledger(deployment.event_id)
            due_window = (
                deployment.start_window + deployment.next_cycle
            )
            if due_window > window:
                continue  # not due until a later window (or probe pending)
            want = min(
                deployment.demand() + led.backlog,
                deployment.max_servable(),
            )
            # The ladder shapes the *request* too, so brownout events
            # free their crowd share up front instead of grabbing quota
            # they would immediately hand back.
            want = health.demand_cap(want)
            requests.append(
                AdmissionRequest(
                    event_id=deployment.event_id,
                    demand=want,
                    priority=deployment.priority,
                    cycles_remaining=deployment.cycles_remaining,
                )
            )
        quotas = self.pool.begin_window(window, requests)
        self._append_journal(
            {
                "kind": "window",
                "window": window,
                "requests": [
                    dataclasses.asdict(request) for request in requests
                ],
                "quotas": quotas,
                "pool": self.pool.snapshot(),
                "health": self._health_map(),
            }
        )

    def _finish_event(self, deployment: Deployment) -> None:
        """Close the event's books: unservable backlog is shed."""
        event_id = deployment.event_id
        shed = self.pool.shed_backlog(event_id)
        self._drained[event_id] = True
        if deployment.journal is not None:
            deployment.journal.close()
            deployment.journal = None
        self._append_journal(
            {
                "kind": "drained",
                "event": event_id,
                "shed_at_drain": shed,
                "pool": self.pool.snapshot(),
                "health": self._health_map(),
            }
        )

    def drain(self) -> int:
        """Run every pending cycle to completion; returns ticks executed.

        "Completion" includes quarantine: a parked event with its probe
        budget spent holds no heap entry, so the loop terminates even
        when some events never drained — check
        :meth:`quarantined_events` afterwards.
        """
        executed = 0
        while self.step() is not None:
            executed += 1
        return executed

    def close(self) -> None:
        """Release journal handles (idempotent)."""
        for deployment in self.registry:
            if deployment.journal is not None:
                deployment.journal.close()
                deployment.journal = None
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None

    # -- introspection -----------------------------------------------------

    def quarantined_events(self) -> list[str]:
        """Event ids currently parked (breaker open), sorted."""
        return sorted(
            event_id
            for event_id, health in self.health.items()
            if health.state == "quarantined"
        )

    def event_status(self, event_id: str) -> EventStatus:
        """One event's progress, books and latency percentiles."""
        from repro.metrics import macro_f1

        deployment = self.registry.get(event_id)
        ledger = deployment.system.ledger
        y_true = deployment.outcome.y_true()
        walls = deployment.cycle_wall_seconds
        latency = {
            "p50": float(np.percentile(walls, 50)) if walls else 0.0,
            "p99": float(np.percentile(walls, 99)) if walls else 0.0,
            "mean": float(np.mean(walls)) if walls else 0.0,
        }
        saves = deployment.checkpoint_wall_seconds
        checkpoint = {
            "p50": float(np.percentile(saves, 50)) if saves else 0.0,
            "mean": float(np.mean(saves)) if saves else 0.0,
        }
        return EventStatus(
            event_id=event_id,
            done=deployment.done,
            next_cycle=deployment.next_cycle,
            n_cycles=deployment.n_cycles,
            macro_f1=(
                float(macro_f1(y_true, deployment.outcome.y_pred()))
                if len(y_true)
                else 0.0
            ),
            pool=self.pool.ledger(event_id).as_dict(),
            budget={
                "spent_cents": float(ledger.spent),
                "charged_cents": float(ledger.total_charged),
                "refunded_cents": float(ledger.total_refunded),
                "remaining_cents": float(ledger.remaining),
            },
            latency_seconds=latency,
            checkpoint_seconds=checkpoint,
            health=(
                self.health[event_id].snapshot()
                if event_id in self.health
                else None
            ),
        )

    def digests(self) -> dict[str, str]:
        """Per-event run-outcome digests (the byte-parity primitive)."""
        return {
            deployment.event_id: run_outcome_digest(deployment.outcome)
            for deployment in self.registry.all()
        }

    def combined_digest(self) -> str:
        """One digest over every event's digest, keyed and sorted by id."""
        body = json.dumps(self.digests(), sort_keys=True)
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def resume(
        cls,
        serve_dir: str | Path,
        setup=None,
        instrument: bool = False,
    ) -> "CrowdLearnService":
        """Rebuild a durable service after a crash.

        Reads the manifest, rebuilds the shared world (unless ``setup``
        is passed in), restores every event from its checkpoint +
        journal (or rebuilds it fresh when it crashed before its first
        checkpoint), re-applies journaled imagery bursts the checkpoints
        predate, restores the pool from the last service-journal record,
        reconstructs the at-most-one admission record a crash can
        swallow, and reassembles the heap.  The resumed service then
        continues deterministically: ``drain()`` yields the same
        per-event digests an uninterrupted run produces.
        """
        from repro.eval.journal import CycleJournal
        from repro.eval.persistence import load_checkpoint
        from repro.eval.runner import build_crowdlearn, prepare

        serve_dir = Path(serve_dir)
        manifest_path = serve_dir / _MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"no serve manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        if setup is None:
            setup = prepare(seed=manifest["seed"], fast=manifest["fast"])
        records = _read_serve_journal(serve_dir / _JOURNAL_NAME, repair=True)

        from repro.serve.admission import create_admission_policy

        pool = SharedCrowdPool(
            capacity_per_cycle=manifest["capacity_per_cycle"],
            policy=create_admission_policy(manifest["policy"]),
            max_backlog=manifest["max_backlog"],
        )
        if records:
            pool = SharedCrowdPool.restore(records[-1]["pool"])
        health_policy = (
            HealthPolicy.from_dict(manifest["health_policy"])
            if manifest.get("health_policy")
            else None
        )
        service = cls(
            setup,
            pool=pool,
            serve_dir=serve_dir,
            fsync=manifest["fsync"],
            instrument=instrument,
            health_policy=health_policy,
        )
        service._manifest = manifest
        for record in reversed(records):
            if "health" in record:
                for event_id, state in record["health"].items():
                    service.health[event_id] = EventHealth.restore(
                        state, policy=service.health_policy
                    )
                break

        ticks_by_event: dict[str, int] = {}
        for record in records:
            if record["kind"] == "tick":
                ticks_by_event[record["event"]] = (
                    ticks_by_event.get(record["event"], 0) + 1
                )
        drained = {
            record["event"] for record in records
            if record["kind"] == "drained"
        }

        missing_tick: Deployment | None = None
        for entry in manifest["events"]:
            event_id = entry["event_id"]
            checkpoint_path, journal_path = service._event_paths(event_id)
            telemetry = service._telemetry_for(event_id)
            if checkpoint_path.exists():
                system, stream, outcome, next_cycle = load_checkpoint(
                    checkpoint_path
                )
                if telemetry is not None:
                    system.telemetry = telemetry
                    system.platform.telemetry = telemetry
            else:
                # Crashed before the first checkpoint: rebuild from the
                # manifest (re-arming any event-scoped fault plan from
                # its recorded spec — the injector RNG starts fresh, and
                # so does the replayed cycle); the event journal replays
                # cycle 0.
                rebuilt_injector = None
                if entry.get("fault_plan"):
                    rebuilt_injector = FaultInjector(
                        plan=FaultPlan.from_dict(entry["fault_plan"]),
                        rng=setup.seeds.get(f"faults-event-{event_id}"),
                    )
                system = build_crowdlearn(
                    setup,
                    platform_name=entry["platform_name"],
                    telemetry=telemetry,
                    seed=entry["seed"],
                    event_id=event_id,
                    cache=service.cache,
                    faults=rebuilt_injector,
                )
                stream = SensingCycleStream(
                    setup.test_set,
                    n_cycles=entry["n_cycles"],
                    images_per_cycle=setup.config.images_per_cycle,
                    cycles_per_context=setup.config.cycles_per_context,
                    rng=setup.seeds.get(f"stream-{entry['stream_name']}"),
                )
                from repro.core.system import RunOutcome

                outcome = RunOutcome()
                next_cycle = 0
            # Checkpointed systems drop cache entries on pickle; give the
            # restored system its namespaced view of the shared physical
            # stores again.
            system.attach_cache(service.cache)
            injector = system.platform.faults
            if injector is not None:
                injector.disarm_crashes()
            journal, _info = CycleJournal.resume(
                journal_path, next_cycle, fsync=manifest["fsync"],
                crash_injector=injector,
            )
            deployment = Deployment(
                event_id=event_id,
                system=system,
                stream=stream,
                priority=entry["priority"],
                start_window=entry["start_window"],
                checkpoint_path=checkpoint_path,
                journal=journal,
                outcome=outcome,
                next_cycle=next_cycle,
            )
            service.registry.add(deployment)
            service._wire_pool_observer(deployment)
            service._replay_bursts(deployment, records)
            if next_cycle == ticks_by_event.get(event_id, 0) + 1:
                if missing_tick is not None:
                    raise ServeJournalError(
                        "more than one admission record is missing "
                        f"({missing_tick.event_id!r} and {event_id!r}); "
                        "the serve journal cannot lag its checkpoints by "
                        "more than one tick"
                    )
                missing_tick = deployment
            elif next_cycle != ticks_by_event.get(event_id, 0):
                raise ServeJournalError(
                    f"event {event_id!r} checkpoint is at cycle "
                    f"{next_cycle} but the serve journal recorded "
                    f"{ticks_by_event.get(event_id, 0)} ticks"
                )
            if deployment.done:
                service._drained[event_id] = True
                if deployment.journal is not None:
                    deployment.journal.close()
                    deployment.journal = None
            elif deployment is missing_tick:
                pass  # _reconstruct_tick reschedules after replaying health
            elif service._health(event_id).state == "quarantined":
                # Parked when we died.  The kill may have landed between
                # the tick append and the quarantine append, so park
                # again (idempotent — backlog already moved parks zero)
                # and re-schedule the probe, or nothing if terminal.
                service.pool.park(event_id)
                service._schedule_probe(deployment)
            else:
                service._push(deployment)
        for event_id in drained:
            service._drained[event_id] = True
        service.ticks = sum(ticks_by_event.values())
        if missing_tick is not None:
            service._reconstruct_tick(missing_tick)
        return service

    def _replay_bursts(
        self, deployment: Deployment, records: list[dict]
    ) -> None:
        """Re-apply journaled bursts the event's checkpoint predates."""
        for record in records:
            if record["kind"] != "ingest":
                continue
            if record["event"] != deployment.event_id:
                continue
            if len(deployment.stream._images) >= record["n_images_total_after"]:
                # Already inside the checkpointed stream; keep the burst
                # count aligned so later re-ids stay disjoint.
                deployment.bursts.append(
                    (0, record["n_images"], record["burst_seed"])
                )
                continue
            if record["burst_seed"] < 0:
                raise ServeJournalError(
                    f"event {deployment.event_id!r} has an unreplayable "
                    "burst (no seed) newer than its checkpoint"
                )
            images = list(
                build_dataset(
                    n_images=record["n_images"],
                    rng=np.random.default_rng(record["burst_seed"]),
                )
            )
            deployment.ingest(images, burst_seed=record["burst_seed"])

    def _reconstruct_tick(self, deployment: Deployment) -> None:
        """Re-derive the admission a crash swallowed.

        The event's cycle ``next_cycle - 1`` completed (checkpoint and
        journal rotation are durable) but the service append never
        landed.  The restored pool and health state are exactly the
        pre-admission state, and admission, health capping and the
        breaker are all deterministic, so replaying them with the
        completed cycle's demand and outcome reproduces the lost
        mutations; the reconstructed record is then appended like any
        other, and the event is rescheduled (or parked) exactly as
        :meth:`step` would have.
        """
        event_id = deployment.event_id
        cycle_index = deployment.next_cycle - 1
        due_window = deployment.start_window + cycle_index
        cycle = deployment.stream.cycle(cycle_index)
        demand = min(self.setup.config.queries_per_cycle, len(cycle))
        if due_window > self.pool.window:
            # The window record is appended (and fsynced) *before* the
            # cycle runs, so a lost tick can never also lose its window.
            raise ServeJournalError(
                f"event {event_id!r} completed a cycle in window "
                f"{due_window} but the serve journal never opened it; "
                "the journal is missing more than its final record"
            )
        health = self._health(event_id)
        if health.state == "quarantined":
            # A quarantined event only ticks through its scheduled
            # probe; the swallowed tick completed, so replay the
            # half-open transition it must have taken.
            if not health.begin_probe(due_window):
                raise ServeJournalError(
                    f"event {event_id!r} completed a cycle while "
                    "quarantined with no probe due; the serve journal "
                    "and checkpoints disagree"
                )
        decision = self.pool.admit(event_id, demand, len(cycle))
        grant = health.cap_grant(decision.granted)
        if grant < decision.granted:
            self.pool.release(
                event_id, decision.granted - grant, requeue=True
            )
        deployment.grants.append(grant)
        # Re-meter the completed cycle's crowd utilization: the restored
        # pool snapshot predates it, and the cycle will not run again.
        posted = int(deployment.outcome.cycles[-1].query_indices.size)
        workers_per_query = deployment.system.platform.workers_per_query
        for _ in range(posted):
            self.pool.note_post(event_id, workers_per_query)
        self.ticks += 1
        failed = tick_failed(deployment.outcome.cycles[-1])
        state = health.observe(failed, due_window)
        self._append_journal(
            {
                "kind": "tick",
                "event": event_id,
                "cycle": cycle_index,
                "window": due_window,
                "granted": grant,
                "deferred": decision.deferred,
                "shed": decision.shed,
                "failed": failed,
                "reconstructed": True,
                "pool": self.pool.snapshot(),
                "health": self._health_map(),
            }
        )
        if deployment.done:
            self._finish_event(deployment)
        elif state == "quarantined":
            self._park(deployment, due_window)
        else:
            self._push(deployment)
