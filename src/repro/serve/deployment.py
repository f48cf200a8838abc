"""One served disaster event: a system, its stream, and its durability.

A :class:`Deployment` owns everything single-tenant about an event — the
:class:`~repro.core.system.CrowdLearnSystem`, the sensing stream, the
accumulated :class:`~repro.core.system.RunOutcome`, and (in durable
mode) the event's checkpoint file and write-ahead journal.  The service
drives it one cycle at a time through :meth:`run_next_cycle`, passing
the query cap the shared pool granted; the cycle and the checkpoint
that ends it are exactly the standalone loop's
(``CrowdLearnSystem.run_cycle`` and
:func:`repro.eval.persistence.commit_cycle`), which is what makes an
N=1 served event byte-identical to ``CrowdLearnSystem.run``.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

from repro.core.system import CrowdLearnSystem, CycleOutcome, RunOutcome
from repro.data.dataset import DisasterImage
from repro.data.stream import SensingCycleStream
from repro.eval.persistence import commit_cycle
from repro.utils.validation import check_positive

__all__ = ["Deployment"]

#: Base image id for ingested bursts: far above any world dataset's ids so
#: burst images can never alias a seed image in feature-store keys.
_BURST_ID_BASE = 1_000_000


class Deployment:
    """A single event's loop, driven cycle-by-cycle by the service.

    Parameters
    ----------
    event_id:
        Stable identity; orders heap ties and names telemetry labels.
    system, stream:
        The event's own system (per-event RNG streams, committee clone,
        platform, ledger) and sensing-cycle stream.
    priority:
        Static weight for priority/deadline admission.
    start_window:
        Global sensing window in which the event's cycle 0 runs.
    checkpoint_path, journal:
        Durable mode: snapshot after every cycle and rotate the journal.
    """

    def __init__(
        self,
        event_id: str,
        system: CrowdLearnSystem,
        stream: SensingCycleStream,
        priority: float = 1.0,
        start_window: int = 0,
        checkpoint_path: str | Path | None = None,
        journal=None,
        outcome: RunOutcome | None = None,
        next_cycle: int = 0,
    ) -> None:
        self.event_id = event_id
        self.system = system
        self.stream = stream
        self.priority = check_positive(priority, "priority")
        self.start_window = int(start_window)
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.journal = journal
        self.outcome = outcome if outcome is not None else RunOutcome()
        self.next_cycle = int(next_cycle)
        #: Wall seconds of each completed cycle (for p50/p99 latency).
        self.cycle_wall_seconds: list[float] = []
        #: Wall seconds of each durable tick's checkpoint save and journal
        #: rotation, which follow the cycle (empty in memory mode).
        self.checkpoint_wall_seconds: list[float] = []
        #: The pool grant each completed cycle ran under.
        self.grants: list[int] = []
        #: Ingested bursts, as ``(at_cycle, n_images, burst_seed)`` —
        #: re-applied on resume (bursts are seed-derived, not pickled).
        self.bursts: list[tuple[int, int, int]] = []

    # -- introspection -----------------------------------------------------

    @property
    def n_cycles(self) -> int:
        return len(self.stream)

    @property
    def done(self) -> bool:
        return self.next_cycle >= self.n_cycles

    @property
    def cycles_remaining(self) -> int:
        return max(self.n_cycles - self.next_cycle, 0)

    def demand(self) -> int:
        """Fresh query demand of the next sensing cycle."""
        if self.done:
            return 0
        cycle = self.stream.cycle(self.next_cycle)
        return min(self.system.config.queries_per_cycle, len(cycle))

    def max_servable(self) -> int:
        """Hard cap on queries the next cycle's imagery can absorb."""
        if self.done:
            return 0
        return len(self.stream.cycle(self.next_cycle))

    def releasable_budget_cents(self) -> float:
        """Unspent crowd budget a parked event can no longer use.

        Surfaced in quarantine journal records and the serve report so
        operators can see what a faulted event leaves on the table.
        """
        return float(self.system.ledger.remaining)

    # -- the loop ----------------------------------------------------------

    def run_next_cycle(self, grant: int) -> CycleOutcome:
        """Run one sensing cycle under the pool's query cap, then (in
        durable mode) checkpoint it and rotate the journal."""
        if self.done:
            raise RuntimeError(f"event {self.event_id!r} already drained")
        cycle = self.stream.cycle(self.next_cycle)
        started = time.perf_counter()
        outcome_cycle = self.system.run_cycle(
            cycle, journal=self.journal, query_cap=int(grant)
        )
        self.cycle_wall_seconds.append(time.perf_counter() - started)
        self.grants.append(int(grant))
        self.outcome.append(outcome_cycle)
        self.next_cycle += 1
        if self.checkpoint_path is not None:
            started = time.perf_counter()
            commit_cycle(
                self.checkpoint_path, self.system, self.stream, self.outcome,
                self.next_cycle, self.journal,
            )
            self.checkpoint_wall_seconds.append(time.perf_counter() - started)
        return outcome_cycle

    # -- imagery ingestion -------------------------------------------------

    def ingest(self, images: list[DisasterImage],
               burst_seed: int | None = None) -> int:
        """Append a burst of fresh imagery as extra sensing cycles.

        Burst images are re-identified into a disjoint id range (see
        ``_BURST_ID_BASE``) so they can never alias the world dataset in
        the BoVW feature store's keys, then appended to the stream's image
        plan; the stream grows by however many (possibly ragged) cycles
        the burst fills.  Returns the number of cycles added.

        ``burst_seed`` records how to regenerate the burst; resumable
        services journal ``(at_cycle, n_images, burst_seed)`` instead of
        pixels.
        """
        if not images:
            return 0
        burst_index = len(self.bursts)
        base = _BURST_ID_BASE * (burst_index + 1)
        relabeled = [
            DisasterImage(
                image.pixels,
                dataclasses.replace(image.metadata, image_id=base + i),
            )
            for i, image in enumerate(images)
        ]
        stream = self.stream
        stream._images.extend(relabeled)
        per_cycle = stream.images_per_cycle
        total = len(stream._images)
        new_n_cycles = -(-total // per_cycle)  # ceil division
        added = new_n_cycles - stream.n_cycles
        stream.n_cycles = new_n_cycles
        self.bursts.append(
            (self.next_cycle, len(images),
             -1 if burst_seed is None else int(burst_seed))
        )
        return added
