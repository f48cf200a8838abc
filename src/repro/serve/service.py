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

Durable mode (``serve_dir``) layers the single-run crash-tolerance
machinery per event — one checkpoint + write-ahead journal pair each, snapshot and
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
import heapq
import json
import os
from collections import Counter
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.cache import BoundedCache, MemoCounters, feature_stores
from repro.core.system import CrowdLearnSystem, CycleOutcome
from repro.crowd.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.data.dataset import build_dataset
from repro.data.stream import SensingCycleStream
from repro.eval.journal import (
    ENVELOPE_LINES,
    JournalError,
    append_synced,
    read_intact,
    repair_tail,
)
from repro.eval.persistence import json_digest, run_outcome_digest
from repro.serve.deployment import Deployment
from repro.serve.health import POLICY as HEALTH_POLICY
from repro.serve.health import EventHealth, tick_failed
from repro.serve.pool import (
    AdmissionDecision,
    AdmissionRequest,
    SharedCrowdPool,
)
from repro.serve.registry import EventRegistry
from repro.telemetry.runtime import Telemetry
from repro.utils.validation import check_positive

__all__ = ["CrowdLearnService", "EventStatus", "ServeJournalError"]

_MANIFEST_NAME = "serve.json"
_JOURNAL_NAME = "serve.journal"
#: Capacity of the fleet's shared BoVW feature store, in per-image vectors.
_FEATURE_STORE_SIZE = 8192


class ServeJournalError(JournalError):
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
        manifest and journal live here.  Every record of every journal
        (the events' and ``serve.journal``) is fsynced as it is written.
    instrument:
        Give each event a live :class:`Telemetry` pipeline labelled
        ``{"event": <id>}`` (disjoint per event).  Off by default — the
        no-op pipeline keeps served runs byte-identical to standalone
        ones.

    Every event gets a circuit breaker and a degradation ladder
    (:mod:`repro.serve.health`), always on: a healthy event's ladder
    never moves and never caps a grant, so fault-free runs stay
    byte-identical.
    """

    def __init__(
        self,
        setup,
        pool: SharedCrowdPool | None = None,
        serve_dir: str | Path | None = None,
        instrument: bool = False,
    ) -> None:
        self.setup = setup
        self.pool = pool if pool is not None else SharedCrowdPool()
        self.registry = EventRegistry()
        self.instrument = instrument
        self.cycle_seconds = float(setup.config.cycle_seconds)
        #: Per-event breaker + ladder state, keyed by event id.
        self.health: dict[str, EventHealth] = {}
        self.telemetries: dict[str, Telemetry] = {}
        self._heap: list[tuple[float, str, int]] = []
        self._seq = 0
        self.ticks = 0
        #: The one BoVW feature store every event's committee encodes into,
        #: seeded with what the base committee encoded at fit (the training
        #: and holdout images every event's clone would otherwise re-encode).
        self.features = BoundedCache(_FEATURE_STORE_SIZE)
        for store in feature_stores(setup.base_committee.experts):
            self.features.update(store)
        self.serve_dir = Path(serve_dir) if serve_dir is not None else None
        self._journal_fh = None
        self._manifest: dict[str, Any] = {
            "version": 1,
            "seed": setup.seed,
            "fast": setup.fast,
            "capacity_per_cycle": self.pool.capacity_per_cycle,
            "policy": self.pool.policy.name,
            "max_backlog": self.pool.max_backlog,
            "events": [],
        }
        if self.serve_dir is not None:
            self.serve_dir.mkdir(parents=True, exist_ok=True)
            self._journal_fh = open(
                self.serve_dir / _JOURNAL_NAME, "a", encoding="utf-8"
            )

    # -- internal plumbing -------------------------------------------------

    @property
    def cache(self) -> MemoCounters:
        """Counters of every event's holdout-score memo (``prediction_*``)
        and the shared feature store (``feature_*``)."""
        return MemoCounters(
            [d.system.guards.score_stats for d in self.registry.all()],
            [self.features],
        )

    @property
    def durable(self) -> bool:
        return self.serve_dir is not None

    def _next_window(self) -> int:
        """The window a newly submitted event starts in."""
        return 0 if self.pool.window < 0 else self.pool.window + 1

    def _push(self, deployment: Deployment) -> None:
        due_window = deployment.start_window + deployment.next_cycle
        heapq.heappush(
            self._heap,
            (due_window * self.cycle_seconds, deployment.event_id, self._seq),
        )
        self._seq += 1

    def _append_journal(self, kind: str, **fields: Any) -> None:
        """Journal one ``kind`` record, stamped with the pool and per-event
        health it leaves behind.  In memory (no open journal) nothing is
        built: those snapshots are only ever read back from the journal."""
        if self._journal_fh is None:
            return
        record = {
            "kind": kind,
            **fields,
            "pool": self.pool.snapshot(),
            "health": self._health_map(),
        }
        append_synced(self._journal_fh, record, ENVELOPE_LINES)

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
        if event_id not in self.health:
            self.health[event_id] = EventHealth()
        return self.health[event_id]

    def _health_map(self) -> dict[str, dict]:
        """JSON-safe per-event health snapshots (journaled per record)."""
        return {
            event_id: health.snapshot()
            for event_id, health in sorted(self.health.items())
        }

    def _count(
        self, event_id: str, name: str, help_text: str, amount: int = 1
    ) -> None:
        telemetry = self.telemetries.get(event_id)
        if telemetry is not None:
            telemetry.counter(name, help=help_text).inc(amount)

    def _telemetry_for(self, event_id: str) -> Telemetry | None:
        if not self.instrument:
            return None
        telemetry = Telemetry(base_labels={"event": event_id})
        self.telemetries[event_id] = telemetry
        return telemetry

    def _build_event(
        self, entry: dict[str, Any]
    ) -> tuple[CrowdLearnSystem, SensingCycleStream]:
        """A fresh system and stream for the event a manifest entry names.

        Every RNG stream is keyed by name (``platform-<platform_name>``,
        ``stream-<stream_name>``, ``faults-event-<id>``), so events are
        independent of each other and of submission order, and a resumed
        fleet rebuilds an event identically.
        """
        from repro.eval.runner import build_crowdlearn

        setup = self.setup
        event_id = entry["event_id"]
        injector = None
        if entry["fault_plan"]:
            injector = FaultInjector(
                plan=FaultPlan.from_dict(entry["fault_plan"]),
                rng=setup.seeds.get(f"faults-event-{event_id}"),
            )
        system = build_crowdlearn(
            setup,
            platform_name=entry["platform_name"],
            telemetry=self._telemetry_for(event_id),
            seed=entry["seed"],
            event_id=event_id,
            faults=injector,
        )
        stream = SensingCycleStream(
            setup.test_set,
            n_cycles=entry["n_cycles"],
            images_per_cycle=setup.config.images_per_cycle,
            cycles_per_context=setup.config.cycles_per_context,
            rng=setup.seeds.get(f"stream-{entry['stream_name']}"),
        )
        return system, stream

    def _register(
        self,
        entry: dict[str, Any],
        system: CrowdLearnSystem,
        stream: SensingCycleStream,
        **state,
    ) -> Deployment:
        """Wrap an event's system and stream in a registered deployment
        whose actual crowd posts are metered into its pool ledger."""
        event_id = entry["event_id"]
        deployment = Deployment(
            event_id=event_id,
            system=system,
            stream=stream,
            priority=entry["priority"],
            start_window=entry["start_window"],
            checkpoint_path=(
                self._event_paths(event_id)[0] if self.durable else None
            ),
            **state,
        )
        self.registry.add(deployment)
        # Fresh and restored events alike encode BoVW features into the
        # fleet's one store (a built or checkpointed system has its own).
        for expert in system.committee.experts:
            if hasattr(expert, "feature_store"):
                expert.feature_store = self.features
        # Capture the pool, not the service: a platform -> service
        # reference cycle would keep a dropped fleet alive until the
        # cyclic collector runs.
        pool = self.pool
        workers_per_query = system.platform.workers_per_query
        system.platform.on_post = lambda result: pool.note_post(
            event_id, workers_per_query
        )
        return deployment

    def _open_journal(self, deployment: Deployment) -> None:
        """Start the event's write-ahead journal at its next cycle."""
        from repro.eval.journal import CycleJournal

        _, journal_path = self._event_paths(deployment.event_id)
        deployment.journal = CycleJournal.create(
            journal_path,
            crash_injector=deployment.system.platform.faults,
            next_cycle=deployment.next_cycle,
        )

    # -- event lifecycle ---------------------------------------------------

    def submit_event(
        self,
        event_id: str,
        seed: int | None = None,
        priority: float = 1.0,
        platform_name: str | None = None,
        stream_name: str | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> Deployment:
        """Register a new disaster event and schedule its first cycle.

        The event's system and stream are built from the shared setup
        under per-event names (default ``event-<id>``, with a root seed
        derived from the event id); see :meth:`_build_event`.

        ``fault_plan`` scopes chaos to this event alone: the plan is
        armed on the event's own platform and recorded in the manifest,
        so a resumed fleet re-arms it deterministically.  Other events
        never see the injector — that isolation is what the blast-radius
        drill asserts.
        """
        if not event_id or any(c in event_id for c in "/\\ \t\n"):
            raise ValueError(
                f"event_id must be a non-empty path-safe token, "
                f"got {event_id!r}"
            )
        if event_id in self.registry:
            raise ValueError(f"event {event_id!r} is already registered")
        priority = check_positive(priority, "priority")
        if seed is None:
            seed = self.setup.seeds.seed_for(f"event-{event_id}")
        entry = {
            "event_id": event_id,
            "seed": int(seed),
            "priority": priority,
            "n_cycles": self.setup.config.n_cycles,
            "start_window": self._next_window(),
            "platform_name": platform_name or f"event-{event_id}",
            "stream_name": stream_name or f"event-{event_id}",
            "fault_plan": (
                None if fault_plan is None or fault_plan.is_noop()
                else fault_plan.as_dict()
            ),
        }
        deployment = self._register(entry, *self._build_event(entry))
        if self.durable:
            self._open_journal(deployment)
        self._health(event_id)
        self._push(deployment)
        self._manifest["events"].append(entry)
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
        number of sensing cycles the burst added.  A burst into a drained
        event reopens it: it is rescheduled and, in durable mode, its
        write-ahead journal restarts at its next cycle.
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
            if self.durable:
                self._open_journal(deployment)
            self._push(deployment)
        self._append_journal(
            "ingest",
            event=event_id,
            n_images=len(images),
            burst_seed=-1 if burst_seed is None else int(burst_seed),
            burst_index=len(deployment.bursts) - 1,
            n_cycles_after=deployment.n_cycles,
            n_images_total_after=len(deployment.stream._images),
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
            window = int(due // self.cycle_seconds)
            if window > self.pool.window:
                self._begin_window(window)
            admitted = self._admit(
                event_id, window,
                deployment.demand(), deployment.max_servable(),
            )
            if admitted is None:
                continue  # stale entry; probe budget already spent
            decision, grant = admitted
            try:
                cycle_outcome = deployment.run_next_cycle(grant)
            except (InjectedCrash, KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # noqa: BLE001 - the bulkhead boundary
                self._trip(deployment, window, grant, exc)
                return event_id
            self._settle(deployment, window, decision, grant, cycle_outcome)
            return event_id
        return None

    def _admit(
        self, event_id: str, window: int, demand: int, servable: int
    ) -> tuple[AdmissionDecision, int] | None:
        """Admit one tick's queries and cap the grant by the event's health.

        A parked event's only heap entry is its scheduled recovery probe,
        so a quarantined event half-opens its breaker first; ``None``
        means no probe is due and nothing was admitted.  The part of the
        pool's grant the ladder shaves goes back to this window's
        water-fill and the event's backlog.
        """
        health = self._health(event_id)
        if health.state == "quarantined":
            if not health.begin_probe(window):
                return None
            self._count(
                event_id, "breaker_half_open_total",
                "recovery probes started by the circuit breaker",
            )
        decision = self.pool.admit(event_id, demand, servable)
        grant = health.cap_grant(decision.granted)
        if grant < decision.granted:
            self.pool.release(
                event_id, decision.granted - grant, requeue=True
            )
        return decision, grant

    def _settle(
        self,
        deployment: Deployment,
        window: int,
        decision: AdmissionDecision,
        grant: int,
        cycle_outcome: CycleOutcome,
        reconstructed: bool = False,
    ) -> None:
        """Book a completed tick: ladder, ``tick`` record, counters, and
        then finish, park or reschedule the event."""
        event_id = deployment.event_id
        health = self._health(event_id)
        state_before = health.state
        probing = health.breaker.state == "half_open"
        self.ticks += 1
        failed = tick_failed(cycle_outcome)
        state = health.observe(failed, window)
        self._append_journal(
            "tick",
            event=event_id,
            cycle=deployment.next_cycle - 1,
            window=window,
            granted=grant,
            deferred=decision.deferred,
            shed=decision.shed,
            failed=failed,
            **({"reconstructed": True} if reconstructed else {}),
        )
        self._count(
            event_id, "serve_queries_deferred_total",
            "queries pushed to a later window by backpressure",
            decision.deferred,
        )
        if failed:
            self._count(
                event_id, "health_failed_ticks_total",
                "completed ticks carrying a failure signal",
            )
        if state != state_before:
            self._count(
                event_id, "health_transitions_total",
                "degradation-ladder state changes",
            )
        if deployment.done:
            self._finish_event(deployment)
        elif state == "quarantined":
            self._park(deployment, window)
        else:
            if probing:
                self._count(
                    event_id, "breaker_closed_total",
                    "breakers closed by a clean recovery probe",
                )
            self._push(deployment)

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
        self._health(event_id).trip(
            window, f"tick raised {type(exc).__name__}: {exc}"
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
            event_id, "breaker_opened_total",
            "breakers opened (failure rate or bulkhead trip)",
        )
        self._count(
            event_id, "health_quarantined_total",
            "events parked by the bulkhead or breaker",
        )
        self._schedule_probe(deployment)
        extra = {}
        if deployment.journal is not None:
            from repro.eval.journal import wal_tail_summary

            # Post-mortem of the event's own WAL: how far the aborted
            # cycle got and whether a crowd post is in doubt.
            extra["wal"] = wal_tail_summary(deployment.journal.path)
        self._append_journal(
            "quarantine",
            event=event_id,
            window=window,
            reason=health.quarantine_reason,
            parked_backlog=parked_backlog,
            released_budget_cents=deployment.releasable_budget_cents(),
            probe_window=health.breaker.probe_window(),
            **extra,
        )

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
        if self._journal_fh is not None:
            self._append_journal(
                "window",
                window=window,
                requests=[dataclasses.asdict(request) for request in requests],
                quotas=quotas,
            )

    def _finish_event(self, deployment: Deployment) -> None:
        """Close the event's books: unservable backlog is shed."""
        event_id = deployment.event_id
        shed = self.pool.shed_backlog(event_id)
        if deployment.journal is not None:
            deployment.journal.close()
            deployment.journal = None
        self._append_journal("drained", event=event_id, shed_at_drain=shed)

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
        return json_digest(self.digests())

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def resume(
        cls,
        serve_dir: str | Path,
        setup=None,
        instrument: bool = False,
    ) -> "CrowdLearnService":
        """Rebuild a durable service after a crash.

        Five stages: the manifest and pool (:meth:`_reopen`), the health
        ladders (:meth:`_restore_health`), each event from its checkpoint
        + journal or fresh from its manifest entry
        (:meth:`_restore_event`), the check that every event's ticks
        match the serve journal (:meth:`_lost_tick`), and the heap
        (:meth:`_reschedule`).  The at-most-one admission record a crash
        can swallow is then reconstructed.  The resumed service continues
        deterministically: ``drain()`` yields the same per-event digests
        an uninterrupted run produces.
        """
        service, records = cls._reopen(Path(serve_dir), setup, instrument)
        service._restore_health(records)
        ticks_by_event = Counter(
            record["event"] for record in records if record["kind"] == "tick"
        )
        missing_tick: Deployment | None = None
        for entry in service._manifest["events"]:
            deployment = service._restore_event(entry, records)
            recorded = ticks_by_event[deployment.event_id]
            if service._lost_tick(deployment, recorded):
                if missing_tick is not None:
                    raise ServeJournalError(
                        "more than one admission record is missing "
                        f"({missing_tick.event_id!r} and "
                        f"{deployment.event_id!r}); the serve journal "
                        "cannot lag its checkpoints by more than one tick"
                    )
                missing_tick = deployment
            else:
                service._reschedule(deployment)
        service.ticks = sum(ticks_by_event.values())
        if missing_tick is not None:
            service._reconstruct_tick(missing_tick)
        return service

    @classmethod
    def _reopen(
        cls, serve_dir: Path, setup, instrument: bool
    ) -> tuple["CrowdLearnService", list[dict]]:
        """Stage 1: the manifest, the shared world, the pool and an empty
        service over them; returns the service and the journal records."""
        from repro.eval.runner import prepare
        from repro.serve.admission import create_admission_policy

        manifest_path = serve_dir / _MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"no serve manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        # Manifests written while the fsync policy was settable record it;
        # the key is ignored, since syncing changes no record or digest.
        # Manifests written while the thresholds were settable record them.
        recorded = manifest.get("health_policy", HEALTH_POLICY)
        if recorded != HEALTH_POLICY:
            raise ServeJournalError(
                f"serve manifest health_policy {recorded!r} differs from "
                f"the built-in thresholds {HEALTH_POLICY!r}"
            )
        if setup is None:
            setup = prepare(seed=manifest["seed"], fast=manifest["fast"])
        journal_path = serve_dir / _JOURNAL_NAME
        read = read_intact(journal_path, ENVELOPE_LINES, ServeJournalError)
        repair_tail(journal_path, read)
        records = read.records
        pool = SharedCrowdPool(
            capacity_per_cycle=manifest["capacity_per_cycle"],
            policy=create_admission_policy(manifest["policy"]),
            max_backlog=manifest["max_backlog"],
        )
        if records:
            pool = SharedCrowdPool.restore(records[-1]["pool"])
        service = cls(
            setup,
            pool=pool,
            serve_dir=serve_dir,
            instrument=instrument,
        )
        service._manifest = manifest
        return service, records

    def _restore_health(self, records: list[dict]) -> None:
        """Stage 2: every event's ladder from the newest health snapshot."""
        for record in reversed(records):
            if "health" in record:
                for event_id, state in record["health"].items():
                    try:
                        self.health[event_id] = EventHealth.restore(state)
                    except ValueError as exc:
                        raise ServeJournalError(
                            f"event {event_id!r} health snapshot: {exc}"
                        ) from exc
                return

    def _restore_event(
        self, entry: dict[str, Any], records: list[dict]
    ) -> Deployment:
        """Stage 3: one event from its checkpoint and journal.

        Goes through :func:`repro.eval.journal.restore_run`, as
        ``repro run --resume`` does.  An event that crashed before its
        first checkpoint is rebuilt from its manifest entry (re-arming any
        event-scoped fault plan — the injector RNG starts fresh, and so
        does the replayed cycle), and its journal replays cycle 0.
        Journaled imagery bursts the checkpoint predates are re-applied.
        """
        from repro.eval.journal import restore_run

        event_id = entry["event_id"]
        checkpoint_path, journal_path = self._event_paths(event_id)
        system, stream, outcome, next_cycle, journal, _info = restore_run(
            checkpoint_path, journal_path,
            fresh=lambda: self._build_event(entry),
        )
        if event_id not in self.telemetries:
            # Restored from a checkpoint: an instrumented fleet gives the
            # event a new pipeline (a fresh build already has one).
            telemetry = self._telemetry_for(event_id)
            if telemetry is not None:
                system.telemetry = telemetry
                system.platform.telemetry = telemetry
        deployment = self._register(
            entry, system, stream,
            journal=journal, outcome=outcome, next_cycle=next_cycle,
        )
        self._replay_bursts(deployment, records)
        return deployment

    def _lost_tick(self, deployment: Deployment, recorded: int) -> bool:
        """Stage 4: whether the event's last tick record was swallowed.

        The event checkpoint may lead the serve journal by exactly one
        tick (killed between the checkpoint and the service append); any
        other disagreement means the two describe different runs.
        """
        if deployment.next_cycle == recorded + 1:
            return True
        if deployment.next_cycle != recorded:
            raise ServeJournalError(
                f"event {deployment.event_id!r} checkpoint is at cycle "
                f"{deployment.next_cycle} but the serve journal recorded "
                f"{recorded} ticks"
            )
        return False

    def _reschedule(self, deployment: Deployment) -> None:
        """Stage 5: put a restored event back on the heap (or not)."""
        event_id = deployment.event_id
        if deployment.done:
            if deployment.journal is not None:
                deployment.journal.close()
                deployment.journal = None
        elif self._health(event_id).state == "quarantined":
            # Parked when we died.  The kill may have landed between
            # the tick append and the quarantine append, so park
            # again (idempotent — backlog already moved parks zero)
            # and re-schedule the probe, or nothing if terminal.
            self.pool.park(event_id)
            self._schedule_probe(deployment)
        else:
            self._push(deployment)

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
        breaker are all deterministic, so the tick is settled again
        through :meth:`_admit` and :meth:`_settle` with the completed
        cycle's demand and outcome — the same path, record and counters
        as a live :meth:`step`, with the record marked ``reconstructed``.
        """
        event_id = deployment.event_id
        cycle_index = deployment.next_cycle - 1
        window = deployment.start_window + cycle_index
        if window > self.pool.window:
            # The window record is appended (and fsynced) *before* the
            # cycle runs, so a lost tick can never also lose its window.
            raise ServeJournalError(
                f"event {event_id!r} completed a cycle in window "
                f"{window} but the serve journal never opened it; "
                "the journal is missing more than its final record"
            )
        cycle = deployment.stream.cycle(cycle_index)
        demand = min(self.setup.config.queries_per_cycle, len(cycle))
        admitted = self._admit(event_id, window, demand, len(cycle))
        if admitted is None:
            raise ServeJournalError(
                f"event {event_id!r} completed a cycle while "
                "quarantined with no probe due; the serve journal "
                "and checkpoints disagree"
            )
        decision, grant = admitted
        deployment.grants.append(grant)
        # Re-meter the completed cycle's crowd utilization: the restored
        # pool snapshot predates it, and the cycle will not run again.
        completed = deployment.outcome.cycles[-1]
        workers_per_query = deployment.system.platform.workers_per_query
        for _ in range(int(completed.query_indices.size)):
            self.pool.note_post(event_id, workers_per_query)
        self._settle(
            deployment, window, decision, grant, completed,
            reconstructed=True,
        )
