"""The black-box crowdsourcing platform (MTurk stand-in).

The requester-facing API is deliberately narrow, matching §III-B's black-box
observations: you can only post queries with incentives and receive
responses — no worker selection, no visibility into the pool.  Internally
the platform draws workers by context-dependent availability, samples their
labels/questionnaires through the quality model, and their delays through the
delay model.

The platform also keeps the per-worker response history that the *Filtering*
quality-control baseline consumes (worker ids and their past labels are
visible on real MTurk through HIT bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bandit.budget import BudgetLedger
from repro.crowd.delay import DelayModel
from repro.crowd.faults import FaultInjector
from repro.crowd.population import WorkerPopulation
from repro.crowd.quality import QualityModel
from repro.crowd.scheduler import PendingResponse, VirtualTimeScheduler
from repro.crowd.tasks import CrowdQuery, QueryResult, WorkerResponse
from repro.data.metadata import ImageMetadata
from repro.telemetry.runtime import Telemetry, get_telemetry
from repro.utils.clock import TemporalContext

__all__ = ["WorkerHistoryEntry", "CrowdsourcingPlatform"]


@dataclass(frozen=True)
class WorkerHistoryEntry:
    """One historical (worker, query) interaction, for quality filtering."""

    worker_id: int
    query_id: int
    label: int
    correct: bool | None  # None when ground truth was never revealed


@dataclass
class CrowdsourcingPlatform:
    """Simulated MTurk: post queries, get noisy timed responses back.

    Parameters
    ----------
    population:
        The (hidden) worker pool.
    delay_model, quality_model:
        Behavioural models calibrated to the paper's pilot study.
    rng:
        Randomness source for worker draws and response noise.
    workers_per_query:
        HIT assignments per query (the paper uses 5).
    faults:
        Optional chaos-engineering hook (see :mod:`repro.crowd.faults`).
        ``None`` (default) leaves every code path exactly as it was.
    telemetry:
        Optional :class:`~repro.telemetry.runtime.Telemetry` pipeline;
        ``None`` resolves the process default (the no-op singleton unless
        a trace run swapped one in).
    scheduler:
        Optional :class:`~repro.crowd.scheduler.VirtualTimeScheduler`.
        When attached, responses that miss ``deadline_seconds`` are not
        discarded but become pending arrival events, harvested by
        :meth:`collect_stragglers` once virtual time catches up to them.
        ``None`` (default) keeps the synchronous drop-late behaviour.
    """

    population: WorkerPopulation
    delay_model: DelayModel
    quality_model: QualityModel
    rng: np.random.Generator
    workers_per_query: int = 5
    faults: FaultInjector | None = None
    telemetry: Telemetry | None = None
    scheduler: VirtualTimeScheduler | None = None
    #: Capacity-accounting observer (see :mod:`repro.serve.pool`): called
    #: with every :class:`QueryResult` this platform produces, live or
    #: journal-replayed, so a shared crowd pool can meter actual worker
    #: assignments.  Never pickled — observers are per-process wiring.
    on_post: Callable[[QueryResult], None] | None = field(
        default=None, repr=False
    )
    _next_query_id: int = field(default=0, init=False)
    _history: list[WorkerHistoryEntry] = field(default_factory=list, init=False)
    _history_by_query: dict[int, list[int]] = field(
        default_factory=dict, init=False
    )
    _history_seen: set[tuple[int, int]] = field(default_factory=set, init=False)
    _worker_stats: dict[int, list[int]] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.workers_per_query <= 0:
            raise ValueError("workers_per_query must be positive")

    def post_query(
        self,
        metadata: ImageMetadata,
        incentive_cents: float,
        context: TemporalContext,
        ledger: BudgetLedger | None = None,
        deadline_seconds: float | None = None,
    ) -> QueryResult:
        """Post one image query and collect worker responses.

        The incentive is charged once per query against ``ledger`` when one
        is provided (raises :class:`~repro.bandit.budget.BudgetExhausted` if
        it does not fit).

        ``deadline_seconds`` models the DDA application's real-time
        constraint: responses arriving after the deadline (e.g. the end of
        the 10-minute sensing cycle) are never seen by the requester and
        are dropped from the result.  The incentive is still spent — slow
        crowds waste money, which is exactly why IPD exists.  ``None``
        (default) waits for everyone, matching the paper's evaluation,
        which measures delays rather than truncating them.

        Under fault injection the query may additionally raise
        :class:`~repro.crowd.faults.PlatformUnavailable` (before any
        charge), lose workers to abandonment, or return corrupted,
        duplicated or unattributable responses — possibly none at all.
        """
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(
                f"deadline must be positive, got {deadline_seconds}"
            )
        tel = self.telemetry if self.telemetry is not None else get_telemetry()
        with tel.span("platform.post_query", context=context.value) as span:
            if self.faults is not None:
                try:
                    self.faults.on_post_attempt()
                except Exception:  # PlatformUnavailable (span tags the error)
                    tel.counter(
                        "platform_outages_total",
                        help="posts rejected by a platform outage",
                    ).inc()
                    raise
            if ledger is not None:
                ledger.charge(incentive_cents)
            query = CrowdQuery(
                query_id=self._next_query_id,
                image_id=metadata.image_id,
                incentive_cents=incentive_cents,
                context=context,
            )
            self._next_query_id += 1
            workers = self.population.sample_workers(
                self.workers_per_query, context, self.rng
            )
            result = QueryResult(query=query, deadline_seconds=deadline_seconds)
            late = expired = 0
            for worker in workers:
                if self.faults is not None and self.faults.worker_abandons():
                    continue  # the HIT was accepted but never submitted
                label = worker.answer_label(
                    metadata, incentive_cents, self.quality_model, self.rng
                )
                questionnaire = worker.answer_questionnaire(
                    metadata, incentive_cents, self.quality_model, self.rng
                )
                delay = self.delay_model.sample(
                    context, incentive_cents, self.rng, worker_speed=worker.speed
                )
                response = WorkerResponse(
                    worker_id=worker.worker_id,
                    label=label,
                    questionnaire=questionnaire,
                    delay_seconds=delay,
                )
                arrived = (
                    [response]
                    if self.faults is None
                    else self.faults.transform_response(response, metadata)
                )
                for response in arrived:
                    # The deadline applies to the *realized* delay — a
                    # delay-spike fault can push an on-time answer past the
                    # cutoff, which is the interesting time-domain failure.
                    if (
                        deadline_seconds is not None
                        and response.delay_seconds > deadline_seconds
                    ):
                        late += 1
                        if self.scheduler is not None and not self.scheduler.schedule(
                            query, response
                        ):
                            expired += 1
                        continue  # never seen within this sensing cycle
                    result.responses.append(response)
            result.n_late = late
            if tel.enabled:
                span.set(query_id=query.query_id,
                         responses=len(result.responses))
            return self._book(result, expired, tel)

    def restore_posted_query(
        self,
        query: CrowdQuery,
        responses: list[WorkerResponse],
        scheduled: list[tuple[float, int, float, WorkerResponse]],
        n_late: int,
        n_expired: int,
        rng_state: dict,
        ledger: BudgetLedger | None,
        paid_cents: float,
        deadline_seconds: float | None = None,
    ) -> QueryResult:
        """Re-apply a journaled post without re-running the crowd.

        Journal replay after a mid-cycle crash must reproduce a post's
        *effects* — the charge, the query id, the delivered responses, the
        scheduler's arrival events, the worker history — without posting
        anything: the money was already spent and the workers already
        answered.  ``rng_state`` is the platform generator's state captured
        right after the original post, so live posts that follow the
        replayed ones continue the original draw sequence exactly.

        ``scheduled`` carries ``(arrival_time, seq, posted_at, response)``
        tuples for late responses that entered the virtual-time heap;
        ``n_expired`` is how many aged out at scheduling time.  Raises
        :class:`ValueError` if ``query.query_id`` is not the next id this
        platform would assign — the journal and platform have diverged and
        replaying would forge or duplicate a post.
        """
        if query.query_id != self._next_query_id:
            raise ValueError(
                f"journaled query id {query.query_id} does not match the "
                f"platform's next id {self._next_query_id}; refusing to "
                "replay a duplicate or out-of-order post"
            )
        if ledger is not None:
            # The restored ledger predates this post (the checkpoint was
            # taken a cycle earlier), so the journaled charge is applied
            # exactly once here — never against a live platform.
            ledger.charge(paid_cents)
        self._next_query_id += 1
        result = QueryResult(
            query=query,
            responses=list(responses),
            n_late=n_late,
            deadline_seconds=deadline_seconds,
        )
        if self.scheduler is not None:
            for arrival_time, seq, posted_at, response in scheduled:
                self.scheduler.restore_event(
                    arrival_time, seq, query, response, posted_at
                )
            self.scheduler.expired_total += int(n_expired)
        self.rng.bit_generator.state = rng_state
        tel = self.telemetry if self.telemetry is not None else get_telemetry()
        return self._book(result, n_expired, tel)

    def _book(
        self, result: QueryResult, n_expired: int, tel: Telemetry
    ) -> QueryResult:
        """Book a delivered result, live or journal-replayed alike: worker
        history, ``platform_*``/``stragglers_expired_total`` instruments
        (``n_expired`` late responses aged out at scheduling) and the
        ``on_post`` meter, so a resumed run's books match an
        uninterrupted run's."""
        query = result.query
        for response in result.responses:
            self._record_history(
                WorkerHistoryEntry(
                    worker_id=response.worker_id,
                    query_id=query.query_id,
                    label=int(response.label),
                    correct=None,
                )
            )
        if n_expired:
            tel.counter(
                "stragglers_expired_total",
                help="late responses aged out before harvest",
            ).inc(n_expired)
        if tel.enabled:
            context = query.context.value
            tel.counter(
                "platform_queries_total", help="queries posted and charged"
            ).inc()
            tel.counter(
                "platform_responses_total",
                help="worker responses delivered to the requester",
            ).inc(len(result.responses))
            if result.n_late:
                tel.counter(
                    "platform_late_responses_total",
                    help="responses that missed the requester deadline",
                ).inc(result.n_late)
                tel.counter(
                    "platform_late_responses_total",
                    help="responses that missed the requester deadline",
                    context=context,
                ).inc(result.n_late)
            for response in result.responses:
                tel.histogram(
                    "platform_response_delay_seconds",
                    help="per-response worker delay",
                    context=context,
                ).observe(response.delay_seconds)
        if self.on_post is not None:
            self.on_post(result)
        return result

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["on_post"] = None  # observer closures never cross processes
        return state

    def _record_history(self, entry: WorkerHistoryEntry) -> None:
        # One history row per (worker, query): duplicate-response faults
        # redeliver the same submission, and the Filtering baseline must not
        # double-count it.  Unattributable (worker_id < 0) responses carry
        # no identity to dedupe on, so each one stays a separate row.
        if entry.worker_id >= 0:
            key = (entry.worker_id, entry.query_id)
            if key in self._history_seen:
                return
            self._history_seen.add(key)
        self._history_by_query.setdefault(entry.query_id, []).append(
            len(self._history)
        )
        self._history.append(entry)

    def collect_stragglers(
        self, now: float | None = None
    ) -> list[PendingResponse]:
        """Harvest late responses whose virtual arrival time has passed.

        Each harvested response is recorded in the worker history (deduped
        like any other delivery) so :meth:`reveal_ground_truth` can grade
        it; the caller decides what to do with the labels (CrowdLearn feeds
        them back into CQC fusion and MIC retraining).  Returns an empty
        list when no scheduler is attached.
        """
        if self.scheduler is None:
            return []
        events = self.scheduler.collect_due(now)
        tel = self.telemetry if self.telemetry is not None else get_telemetry()
        for event in events:
            self._record_history(
                WorkerHistoryEntry(
                    worker_id=event.response.worker_id,
                    query_id=event.query.query_id,
                    label=int(event.response.label),
                    correct=None,
                )
            )
        if events and tel.enabled:
            tel.counter(
                "stragglers_harvested_total",
                help="late responses harvested into later cycles",
            ).inc(len(events))
            for event in events:
                tel.histogram(
                    "straggler_age_seconds",
                    help="posting-to-harvest age of straggler responses",
                ).observe(event.age_seconds)
        return events

    def reveal_ground_truth(self, query_id: int, true_label: int) -> None:
        """Mark history entries of ``query_id`` as correct/incorrect.

        Called by quality-control schemes once a truthful label is known, so
        worker track records accumulate (used by the Filtering baseline).
        History entries are indexed by query id, so grading stays O(workers
        per query) rather than rescanning the whole deployment's history;
        per-worker graded/correct tallies are maintained incrementally.
        Safe to call again for the same query (e.g. after a straggler
        harvest added responses): already-graded entries are re-checked
        without double-counting.
        """
        for i in self._history_by_query.get(query_id, ()):
            entry = self._history[i]
            correct = entry.label == int(true_label)
            stats = self._worker_stats.setdefault(entry.worker_id, [0, 0])
            if entry.correct is None:
                stats[0] += 1
                stats[1] += int(correct)
            elif entry.correct != correct:
                stats[1] += 1 if correct else -1
            self._history[i] = WorkerHistoryEntry(
                worker_id=entry.worker_id,
                query_id=entry.query_id,
                label=entry.label,
                correct=correct,
            )

    def worker_track_record(self, worker_id: int) -> tuple[int, int]:
        """(graded responses, correct responses) for one worker.

        Served from a running per-worker index updated by
        :meth:`reveal_ground_truth`, so the per-cycle worker-reliability
        sweep stays O(workers) instead of O(workers × history).
        """
        graded, correct = self._worker_stats.get(worker_id, (0, 0))
        return graded, correct

    @property
    def n_queries_posted(self) -> int:
        """Total queries posted so far."""
        return self._next_query_id

    @property
    def history(self) -> list[WorkerHistoryEntry]:
        """The full interaction history (read-only view by convention)."""
        return self._history
