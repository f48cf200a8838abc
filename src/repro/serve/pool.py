"""The shared crowd pool: worker capacity as a contended resource.

One worker population backs every concurrent deployment, so per-cycle
crowd throughput is finite.  The pool buckets virtual time into sensing
windows (one per ``cycle_seconds``), computes each window's per-event
quotas through an :class:`~repro.serve.admission.AdmissionPolicy`, and
meters every event's query demand against them:

- demand within quota is **admitted** (becomes the cycle's query cap),
- unmet demand is **deferred** into the event's backlog, rolling forward
  as extra catch-up slots in later windows,
- backlog beyond ``max_backlog`` is **shed** — those queries will never
  be posted, so nothing is ever charged for them (the money stays in the
  event's :class:`~repro.bandit.budget.BudgetLedger`, whose PR 1 refund
  path keeps covering posted-but-unanswered queries).

Conservation invariant, per event and in aggregate::

    requested == admitted + shed + backlog + quarantined

``quarantined`` holds demand whose event was parked by the service's
bulkhead/breaker layer (:mod:`repro.serve.health`): those queries were
requested and will never be served, but they were not *shed* by
backpressure — keeping them in their own bucket keeps both stories
auditable.  When an event is parked mid-window, :meth:`SharedCrowdPool.release`
returns its unused grant to the window and re-water-fills the freed
slots across the events still waiting in the *same* window, so released
capacity is never stranded until the next rollover.

The load generator's ``--check`` gate asserts the invariant exactly.
All state is JSON-serializable (:meth:`SharedCrowdPool.snapshot` /
:meth:`SharedCrowdPool.restore`) so the serving layer's own journal can
restore the pool mid-run bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.serve.admission import (
    AdmissionPolicy,
    AdmissionRequest,
    FairSharePolicy,
    create_admission_policy,
)
from repro.utils.validation import check_integer

__all__ = ["EventLedger", "AdmissionDecision", "SharedCrowdPool"]


@dataclass
class EventLedger:
    """Per-event capacity books (queries, not money).

    ``requested`` counts every query the event ever demanded;
    ``admitted`` those granted a slot (immediately or as catch-up);
    ``deferred`` every demand pushed to a later window (cumulative — a
    query deferred twice counts twice); ``shed`` demand dropped past the
    backlog bound; ``backlog`` the queries still waiting; ``quarantined``
    demand the service's health layer parked (never to be served, but
    not shed by backpressure).  Worker-side utilization
    (``posted_queries``/``worker_assignments``) is metered by the
    platform's post observer, so granted-but-never-posted slots (budget
    exhaustion, outages) stay visible.
    """

    requested: int = 0
    admitted: int = 0
    deferred: int = 0
    shed: int = 0
    backlog: int = 0
    quarantined: int = 0
    posted_queries: int = 0
    worker_assignments: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def conserved(self) -> bool:
        """Whether this event's books balance (see module docstring)."""
        return self.requested == (
            self.admitted + self.shed + self.backlog + self.quarantined
        )


@dataclass(frozen=True)
class AdmissionDecision:
    """What one event's cycle may do in the current window."""

    event_id: str
    window: int
    granted: int        # the cycle's query cap (new + catch-up)
    admitted_new: int   # portion of this cycle's fresh demand admitted
    served_backlog: int  # catch-up slots drawn from the backlog
    deferred: int       # fresh demand pushed into the backlog
    shed: int           # backlog overflow dropped this admission


@dataclass
class SharedCrowdPool:
    """Meters shared per-window crowd capacity across events.

    Parameters
    ----------
    capacity_per_cycle:
        Query slots the whole crowd can absorb per sensing window across
        *all* events; ``None`` disables metering (every demand admitted),
        which is the single-tenant parity mode.
    policy:
        Admission policy splitting each window's capacity.
    max_backlog:
        Per-event bound on deferred queries; overflow is shed.  ``None``
        defers without bound.
    """

    capacity_per_cycle: int | None = None
    policy: AdmissionPolicy = field(default_factory=FairSharePolicy)
    max_backlog: int | None = None
    window: int = -1
    window_remaining: int = 0
    window_quotas: dict[str, int] = field(default_factory=dict)
    #: The request set the current window's quotas were computed from
    #: (kept so :meth:`release` can re-water-fill freed slots).
    window_requests: list[AdmissionRequest] = field(default_factory=list)
    #: Events that already admitted in the current window.
    window_admitted: list[str] = field(default_factory=list)
    ledgers: dict[str, EventLedger] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity_per_cycle is not None:
            check_integer(self.capacity_per_cycle, "capacity_per_cycle")
        if self.max_backlog is not None:
            check_integer(self.max_backlog, "max_backlog")

    @property
    def metered(self) -> bool:
        return self.capacity_per_cycle is not None

    def ledger(self, event_id: str) -> EventLedger:
        """The event's capacity books (created on first touch)."""
        try:
            return self.ledgers[event_id]
        except KeyError:
            led = EventLedger()
            self.ledgers[event_id] = led
            return led

    # -- window lifecycle --------------------------------------------------

    def begin_window(
        self, window: int, requests: list[AdmissionRequest]
    ) -> dict[str, int]:
        """Open sensing window ``window`` and fix its per-event quotas.

        ``requests`` must cover every event that will admit in this
        window, with demand = fresh cycle demand + servable backlog.
        Quotas are computed once, up front, from the full request set —
        admission order within the window then cannot change anyone's
        share, which is what makes the heap interleaving deterministic.
        """
        if window <= self.window:
            raise ValueError(
                f"windows must advance monotonically: {window} after "
                f"{self.window}"
            )
        self.window = window
        self.window_requests = list(requests)
        self.window_admitted = []
        if not self.metered:
            self.window_quotas = {}
            self.window_remaining = 0
            return {}
        self.window_quotas = self.policy.allocate(
            self.capacity_per_cycle, requests
        )
        self.window_remaining = self.capacity_per_cycle
        return dict(self.window_quotas)

    # -- admission ---------------------------------------------------------

    def admit(
        self, event_id: str, demand_new: int, max_servable: int | None = None
    ) -> AdmissionDecision:
        """Meter one event's cycle demand against the current window.

        ``demand_new`` is the fresh demand this sensing cycle generates;
        the event's backlog is appended as catch-up want.  ``max_servable``
        caps the grant at what the cycle's imagery can actually absorb
        (catch-up queries are posed against the newest imagery — in rapid
        damage assessment fresh scenes supersede stale ones).  Fresh
        demand is served before backlog so a saturated event degrades to
        "latest imagery first" rather than starving on its own history.
        """
        if demand_new < 0:
            raise ValueError(f"demand_new must be >= 0, got {demand_new}")
        led = self.ledger(event_id)
        led.requested += demand_new
        if event_id not in self.window_admitted:
            self.window_admitted.append(event_id)
        want = demand_new + led.backlog
        if max_servable is not None:
            want = min(want, max_servable)
        if not self.metered:
            granted = want
        else:
            quota = self.window_quotas.get(event_id, 0)
            granted = min(want, quota, self.window_remaining)
            self.window_quotas[event_id] = quota - granted
            self.window_remaining -= granted
        admitted_new = min(demand_new, granted)
        served_backlog = min(led.backlog, granted - admitted_new)
        deferred_new = demand_new - admitted_new
        led.admitted += granted
        led.deferred += deferred_new
        led.backlog = led.backlog - served_backlog + deferred_new
        shed = 0
        if self.max_backlog is not None and led.backlog > self.max_backlog:
            shed = led.backlog - self.max_backlog
            led.backlog = self.max_backlog
            led.shed += shed
        return AdmissionDecision(
            event_id=event_id,
            window=self.window,
            granted=granted,
            admitted_new=admitted_new,
            served_backlog=served_backlog,
            deferred=deferred_new,
            shed=shed,
        )

    def shed_backlog(self, event_id: str) -> int:
        """Drop an event's remaining backlog (e.g. when it finishes).

        A finished stream can never serve its deferred queries, so they
        are shed to keep the conservation invariant closed.
        """
        led = self.ledger(event_id)
        dropped = led.backlog
        led.shed += dropped
        led.backlog = 0
        return dropped

    def release(
        self, event_id: str, slots: int, requeue: bool = True
    ) -> dict[str, int]:
        """Un-admit ``slots`` the event will not use this window.

        Two callers: the health layer shaving a grant down to a degraded
        batch (``requeue=True`` — the shaved demand goes back to the
        event's backlog, to be served once it recovers), and the
        bulkhead parking a faulted event mid-tick (``requeue=False`` —
        the demand moves to the ``quarantined`` bucket, never to be
        served).  Either way the slots re-enter the *current* window:
        ``window_remaining`` grows back and the freed capacity is
        re-water-filled across the events still waiting to admit in this
        window (returned as ``{event_id: extra_quota}``), so a parked
        event's share is redistributed instead of stranded.
        """
        if slots < 0:
            raise ValueError(f"slots must be >= 0, got {slots}")
        if slots == 0:
            return {}
        led = self.ledger(event_id)
        if slots > led.admitted:
            raise ValueError(
                f"cannot release {slots} slots from {event_id!r}: only "
                f"{led.admitted} were ever admitted"
            )
        led.admitted -= slots
        if requeue:
            led.deferred += slots
            led.backlog += slots
            if self.max_backlog is not None and led.backlog > self.max_backlog:
                overflow = led.backlog - self.max_backlog
                led.backlog = self.max_backlog
                led.shed += overflow
        else:
            led.quarantined += slots
        if not self.metered:
            return {}
        self.window_remaining += slots
        return self._refill(slots, exclude=event_id)

    def _refill(self, slots: int, exclude: str) -> dict[str, int]:
        """Water-fill freed slots over this window's still-waiting events."""
        waiting = []
        for request in self.window_requests:
            if request.event_id == exclude:
                continue
            if request.event_id in self.window_admitted:
                continue
            unmet = request.demand - self.window_quotas.get(
                request.event_id, 0
            )
            if unmet <= 0:
                continue
            waiting.append(
                AdmissionRequest(
                    event_id=request.event_id,
                    demand=unmet,
                    priority=request.priority,
                    cycles_remaining=request.cycles_remaining,
                )
            )
        if not waiting:
            return {}
        extra = self.policy.allocate(slots, waiting)
        granted = {k: v for k, v in extra.items() if v > 0}
        for target, bonus in granted.items():
            self.window_quotas[target] = (
                self.window_quotas.get(target, 0) + bonus
            )
        return granted

    def park(self, event_id: str) -> int:
        """Move an event's waiting backlog into the quarantine bucket.

        Called when the health layer parks the event: its backlog can no
        longer be served, but it was never shed by backpressure either.
        Returns the number of queries parked.
        """
        led = self.ledger(event_id)
        moved = led.backlog
        led.quarantined += moved
        led.backlog = 0
        return moved

    def note_post(self, event_id: str, workers_per_query: int) -> None:
        """Platform post observer hook: meter actual crowd utilization."""
        led = self.ledger(event_id)
        led.posted_queries += 1
        led.worker_assignments += workers_per_query

    # -- invariants & persistence -----------------------------------------

    def conserved(self) -> bool:
        """Whether every event's books balance."""
        return all(led.conserved() for led in self.ledgers.values())

    def totals(self) -> dict[str, int]:
        """Aggregate books across events (JSON-safe)."""
        out = EventLedger()
        for led in self.ledgers.values():
            out.requested += led.requested
            out.admitted += led.admitted
            out.deferred += led.deferred
            out.shed += led.shed
            out.backlog += led.backlog
            out.quarantined += led.quarantined
            out.posted_queries += led.posted_queries
            out.worker_assignments += led.worker_assignments
        return out.as_dict()

    def snapshot(self) -> dict:
        """JSON-safe full state, for the serving layer's journal."""
        return {
            "capacity_per_cycle": self.capacity_per_cycle,
            "policy": self.policy.name,
            "max_backlog": self.max_backlog,
            "window": self.window,
            "window_remaining": self.window_remaining,
            "window_quotas": dict(self.window_quotas),
            "window_requests": [
                asdict(request) for request in self.window_requests
            ],
            "window_admitted": list(self.window_admitted),
            "ledgers": {
                event_id: led.as_dict()
                for event_id, led in sorted(self.ledgers.items())
            },
        }

    @classmethod
    def restore(cls, state: dict) -> "SharedCrowdPool":
        """Rebuild a pool from :meth:`snapshot` output."""
        pool = cls(
            capacity_per_cycle=state["capacity_per_cycle"],
            policy=create_admission_policy(state["policy"]),
            max_backlog=state["max_backlog"],
        )
        pool.window = int(state["window"])
        pool.window_remaining = int(state["window_remaining"])
        pool.window_quotas = {
            k: int(v) for k, v in state["window_quotas"].items()
        }
        pool.window_requests = [
            AdmissionRequest(**fields)
            for fields in state.get("window_requests", [])
        ]
        pool.window_admitted = list(state.get("window_admitted", []))
        pool.ledgers = {
            event_id: EventLedger(**fields)
            for event_id, fields in state["ledgers"].items()
        }
        return pool
