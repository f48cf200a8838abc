"""Event-driven virtual-time scheduler for crowd responses.

The paper's DDA loop is *real-time*: each sensing cycle lasts ten minutes
(§V, Figure 5's delay analysis), and IPD exists precisely because slow
crowds waste money.  The synchronous reproduction collapses that axis —
``post_query`` returns every response instantly and sampled delays are
only recorded, never enforced.  This module makes simulated time a
first-class part of the loop:

- a :class:`VirtualTimeScheduler` advances a
  :class:`~repro.utils.clock.SimulatedClock` cycle by cycle;
- worker responses whose sampled delay exceeds the remaining sensing-cycle
  deadline become *scheduled arrival events* (:class:`PendingResponse`)
  instead of being silently dropped;
- at the start of each later cycle the matured events are **harvested** as
  straggler labels — exactly how a real MTurk deployment would see a HIT
  submitted after the requester's cutoff: the work still arrives, the
  money is already spent, and the label is still usable for retraining.

The scheduler is deliberately free of randomness: it never touches any
RNG, so attaching one to a platform cannot perturb the fault-free draw
sequence (the same invariant :mod:`repro.crowd.faults` keeps).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.crowd.tasks import CrowdQuery, WorkerResponse
from repro.utils.clock import SECONDS_PER_CYCLE, SimulatedClock

__all__ = ["PendingResponse", "VirtualTimeScheduler"]


@dataclass(order=True, frozen=True)
class PendingResponse:
    """One scheduled response-arrival event.

    Ordered by ``(arrival_time, seq)``: the heap pops arrivals in virtual
    time order, with the insertion sequence breaking ties deterministically
    (two responses can share an arrival time through duplicate faults).
    """

    arrival_time: float
    seq: int
    query: CrowdQuery = field(compare=False)
    response: WorkerResponse = field(compare=False)
    #: Virtual time at which the query was posted (for age accounting).
    posted_at: float = field(compare=False, default=0.0)

    @property
    def age_seconds(self) -> float:
        """How long after its posting this response arrives."""
        return self.arrival_time - self.posted_at


class VirtualTimeScheduler:
    """Virtual-time event queue over a :class:`SimulatedClock`.

    Parameters
    ----------
    clock:
        The simulated wall clock; a fresh one (starting at the paper's
        8 AM) when omitted.
    cycle_seconds:
        Length of one sensing cycle (the paper's 600 s).
    max_straggler_age_seconds:
        Responses that would arrive more than this long after their query
        was posted are *expired* at scheduling time — the requester has
        moved on and the HIT result is discarded, as real platforms do
        with assignments returned long past their lifetime.  ``None``
        keeps every straggler forever.
    """

    def __init__(
        self,
        clock: SimulatedClock | None = None,
        cycle_seconds: float = SECONDS_PER_CYCLE,
        max_straggler_age_seconds: float | None = None,
    ) -> None:
        if cycle_seconds <= 0:
            raise ValueError(
                f"cycle_seconds must be positive, got {cycle_seconds}"
            )
        if max_straggler_age_seconds is not None and max_straggler_age_seconds <= 0:
            raise ValueError(
                "max_straggler_age_seconds must be positive, got "
                f"{max_straggler_age_seconds}"
            )
        self.clock = clock if clock is not None else SimulatedClock()
        self.cycle_seconds = float(cycle_seconds)
        self.max_straggler_age_seconds = max_straggler_age_seconds
        self._events: list[PendingResponse] = []
        self._next_seq = 0
        self._pending_per_query: dict[int, int] = {}
        #: Events discarded at scheduling time because they aged out.
        self.expired_total = 0

    @property
    def now(self) -> float:
        """Current virtual time (seconds since the deployment started)."""
        return self.clock.elapsed_seconds

    @property
    def pending_count(self) -> int:
        """Number of response arrivals still in flight."""
        return len(self._events)

    @property
    def next_arrival(self) -> float | None:
        """Virtual time of the earliest pending arrival, if any."""
        return self._events[0].arrival_time if self._events else None

    def cycle_start(self, cycle_index: int) -> float:
        """Virtual time at which sensing cycle ``cycle_index`` begins."""
        if cycle_index < 0:
            raise ValueError(f"cycle_index must be >= 0, got {cycle_index}")
        return cycle_index * self.cycle_seconds

    def advance(self, seconds: float) -> float:
        """Consume ``seconds`` of cycle time (e.g. retry backoff)."""
        return self.clock.advance(seconds)

    def advance_to(self, elapsed_seconds: float) -> float:
        """Advance (forwards only) to an absolute virtual time.

        A no-op when the clock is already at or past the target, so cycle
        starts stay monotonic even after backoff spilled past a boundary.
        """
        return self.clock.advance_to(elapsed_seconds)

    def schedule(
        self, query: CrowdQuery, response: WorkerResponse
    ) -> bool:
        """Schedule a late response to arrive ``delay_seconds`` from now.

        Returns ``True`` if the event was queued, ``False`` if it aged out
        immediately (its delay exceeds ``max_straggler_age_seconds``).
        """
        if (
            self.max_straggler_age_seconds is not None
            and response.delay_seconds > self.max_straggler_age_seconds
        ):
            self.expired_total += 1
            return False
        event = PendingResponse(
            arrival_time=self.now + response.delay_seconds,
            seq=self._next_seq,
            query=query,
            response=response,
            posted_at=self.now,
        )
        self._next_seq += 1
        heapq.heappush(self._events, event)
        self._pending_per_query[query.query_id] = (
            self._pending_per_query.get(query.query_id, 0) + 1
        )
        return True

    def collect_due(self, now: float | None = None) -> list[PendingResponse]:
        """Pop every event whose arrival time is at or before ``now``.

        Events come back in arrival order (ties broken by scheduling
        sequence), so harvesting is deterministic.
        """
        if now is None:
            now = self.now
        due: list[PendingResponse] = []
        while self._events and self._events[0].arrival_time <= now:
            event = heapq.heappop(self._events)
            due.append(event)
            qid = event.query.query_id
            remaining = self._pending_per_query.get(qid, 0) - 1
            if remaining > 0:
                self._pending_per_query[qid] = remaining
            else:
                self._pending_per_query.pop(qid, None)
        return due

    def has_pending(self, query_id: int) -> bool:
        """Whether any response for ``query_id`` is still in flight."""
        return self._pending_per_query.get(query_id, 0) > 0

    @property
    def next_seq(self) -> int:
        """Sequence number the next scheduled event will receive."""
        return self._next_seq

    def events_since(self, seq: int) -> list[PendingResponse]:
        """Pending events with sequence ``>= seq``, in sequence order.

        The journal layer uses this to serialize exactly the arrival
        events one posted query added to the heap (its post captured
        ``next_seq`` beforehand) without disturbing the heap itself.
        """
        return sorted(
            (e for e in self._events if e.seq >= seq), key=lambda e: e.seq
        )

    def restore_event(
        self,
        arrival_time: float,
        seq: int,
        query: CrowdQuery,
        response: WorkerResponse,
        posted_at: float,
    ) -> None:
        """Re-insert a journaled arrival event exactly as it was queued.

        Journal replay cannot go through :meth:`schedule` — the clock has
        moved on and the sequence counter must match the original run — so
        this restores the recorded ``(arrival_time, seq, posted_at)``
        verbatim and bumps ``_next_seq`` past the restored sequence.
        """
        event = PendingResponse(
            arrival_time=float(arrival_time),
            seq=int(seq),
            query=query,
            response=response,
            posted_at=float(posted_at),
        )
        heapq.heappush(self._events, event)
        self._next_seq = max(self._next_seq, event.seq + 1)
        self._pending_per_query[query.query_id] = (
            self._pending_per_query.get(query.query_id, 0) + 1
        )

    def snapshot(self) -> dict:
        """JSON-safe summary for checkpoint envelopes and telemetry."""
        return {
            "virtual_time_seconds": self.now,
            "cycle_seconds": self.cycle_seconds,
            "pending_events": self.pending_count,
            "pending_queries": len(self._pending_per_query),
            "next_arrival_seconds": self.next_arrival,
            "expired_total": self.expired_total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VirtualTimeScheduler(now={self.now:.1f}s, "
            f"pending={self.pending_count})"
        )
