"""The CrowdLearn closed-loop system (Figure 4).

Per sensing cycle: ① QSS picks the query set from committee entropy;
② IPD prices each query with the constrained contextual bandit and the
queries go to the crowdsourcing platform; ③ CQC fuses the workers' labels
and questionnaire evidence into truthful labels; ④ MIC reweights the
committee, retrains the experts, and offloads the query set's labels to the
crowd.  Final labels come from the reweighted committee with the query set
overridden by the crowd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.bandit.budget import BudgetExhausted, BudgetLedger
from repro.core.cache import MemoCounters, feature_stores
from repro.core.committee import Committee
from repro.core.config import CrowdLearnConfig
from repro.core.cqc import CrowdQualityControl
from repro.core.guards import GuardCounters, GuardPolicy, ModelGuard
from repro.core.ipd import IncentivePolicyDesigner
from repro.core.mic import MachineIntelligenceCalibrator
from repro.core.qss import AdaptiveQuerySetSelector, QuerySetSelector
from repro.core.resilience import ResilienceCounters, ResiliencePolicy
from repro.crowd.faults import PlatformUnavailable
from repro.crowd.pilot import PilotResult
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.scheduler import PendingResponse, VirtualTimeScheduler
from repro.crowd.tasks import QueryResult
from repro.data.dataset import DisasterDataset, DisasterImage
from repro.data.stream import SensingCycle, SensingCycleStream
from repro.metrics.information import batch_bounded_divergence
from repro.telemetry.runtime import Telemetry, get_telemetry, use_telemetry
from repro.utils.clock import TemporalContext
from repro.utils.rng import SeedSequencer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (eval imports core)
    from repro.eval.journal import CycleJournal

__all__ = ["CycleOutcome", "RunOutcome", "StragglerRecord", "CrowdLearnSystem"]


@dataclass
class StragglerRecord:
    """A posted query with late responses still in flight.

    Kept by the system between cycles so a harvested response can be fused
    back into its query's full response set (CQC re-grades the label over
    everything that has arrived) and its image can join a later cycle's
    MIC retraining batch.
    """

    image: DisasterImage
    result: QueryResult


@dataclass(frozen=True)
class CycleOutcome:
    """Everything CrowdLearn produced in one sensing cycle."""

    cycle_index: int
    context: TemporalContext
    true_labels: np.ndarray
    final_labels: np.ndarray
    final_scores: np.ndarray
    query_indices: np.ndarray
    incentives_cents: np.ndarray
    crowd_delay: float  # mean per-query delay; 0.0 when nothing was queried
    cost_cents: float
    expert_weights: np.ndarray
    resilience: ResilienceCounters = field(default_factory=ResilienceCounters)
    guards: GuardCounters = field(default_factory=GuardCounters)


@dataclass
class RunOutcome:
    """Aggregated outcomes over a whole deployment."""

    cycles: list[CycleOutcome] = field(default_factory=list)

    def append(self, outcome: CycleOutcome) -> None:
        self.cycles.append(outcome)

    def y_true(self) -> np.ndarray:
        """Ground-truth labels over all cycles, in stream order.

        An outcome with no cycles yields an empty label array (matching
        :meth:`weight_trace`'s convention) rather than the ``ValueError``
        ``np.concatenate`` raises on an empty list.
        """
        if not self.cycles:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([c.true_labels for c in self.cycles])

    def y_pred(self) -> np.ndarray:
        """Final labels over all cycles, in stream order (empty if no cycles)."""
        if not self.cycles:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([c.final_labels for c in self.cycles])

    def scores(self) -> np.ndarray:
        """Final per-class scores over all cycles (for ROC curves).

        Shape ``(0, 0)`` when the run has no cycles — the class count is
        unknowable without at least one cycle's score matrix.
        """
        if not self.cycles:
            return np.empty((0, 0))
        return np.concatenate([c.final_scores for c in self.cycles])

    def mean_crowd_delay(self) -> float:
        """Average crowd delay per cycle, over cycles that queried the crowd."""
        delays = [c.crowd_delay for c in self.cycles if c.query_indices.size]
        if not delays:
            return 0.0
        return float(np.mean(delays))

    def crowd_delay_by_context(self) -> dict[TemporalContext, float]:
        """Mean crowd delay per temporal context (Figure 8's series)."""
        table: dict[TemporalContext, list[float]] = {}
        for c in self.cycles:
            if c.query_indices.size:
                table.setdefault(c.context, []).append(c.crowd_delay)
        return {
            context: float(np.mean(values)) for context, values in table.items()
        }

    def total_cost_cents(self) -> float:
        """Total crowd spend over the run."""
        return float(sum(c.cost_cents for c in self.cycles))

    def accuracy_trace(self) -> np.ndarray:
        """Per-cycle accuracy, shape ``(n_cycles,)``.

        Shows the closed loop's learning behaviour: as MIC reweights and
        retrains, per-cycle accuracy should drift up over the deployment.
        """
        return np.array(
            [
                float(np.mean(c.final_labels == c.true_labels))
                for c in self.cycles
            ]
        )

    def weight_trace(self) -> np.ndarray:
        """Expert weights after every cycle, shape ``(n_cycles, n_experts)``."""
        if not self.cycles:
            return np.empty((0, 0))
        return np.stack([c.expert_weights for c in self.cycles])

    def spend_trace(self) -> np.ndarray:
        """Cumulative crowd spend after each cycle (cents)."""
        return np.cumsum([c.cost_cents for c in self.cycles])

    def resilience_totals(self) -> ResilienceCounters:
        """Aggregated resilience counters over the whole deployment."""
        totals = ResilienceCounters()
        for c in self.cycles:
            totals.merge(c.resilience)
        return totals

    def guard_totals(self) -> GuardCounters:
        """Aggregated guard counters over the whole deployment."""
        totals = GuardCounters()
        for c in self.cycles:
            totals.merge(c.guards)
        return totals


@dataclass
class _CycleState:
    """What the stages of one sensing cycle hand to each other."""

    cycle: SensingCycle
    tel: Telemetry
    dataset: DisasterDataset
    #: Non-quarantined experts (``None``: all active); refreshed after the
    #: guard rescores the committee.
    mask: np.ndarray | None
    #: CQC's label distributions; ``(0, k)`` until CQC runs.
    truth_dists: np.ndarray
    #: Memo counters at the start of the cycle (see ``CrowdLearnSystem.cache``).
    cache_stats: dict
    #: Write-ahead journal (:class:`repro.eval.journal.CycleJournal`);
    #: ``None`` runs the cycle without crash tolerance.
    journal: CycleJournal | None = None
    #: Query cap the shared crowd pool granted this cycle; ``None``
    #: (standalone runs) falls back to ``config.queries_per_cycle``.  May
    #: exceed the nominal size when the pool grants catch-up capacity.
    query_cap: int | None = None
    counters: ResilienceCounters = field(default_factory=ResilienceCounters)
    gcounters: GuardCounters = field(default_factory=GuardCounters)
    straggler_images: list[DisasterImage] = field(default_factory=list)
    straggler_labels: list[int] = field(default_factory=list)
    votes: list[np.ndarray] = field(default_factory=list)
    #: The QSS selection until the crowd stage ends, then the images
    #: whose queries were posted and kept.
    query_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    posted_indices: list[int] = field(default_factory=list)
    results: list[QueryResult] = field(default_factory=list)
    arms: list[int] = field(default_factory=list)
    incentives: list[float] = field(default_factory=list)
    cost: float = 0.0
    truthful: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    reliability: float | None = None
    flagged: bool = False
    crowd_delay: float = 0.0


class CrowdLearnSystem:
    """The assembled CrowdLearn pipeline.

    Use :meth:`build` for the full paper setup (train CQC on the pilot,
    warm-start IPD, reserve the guard holdout) from a trained committee,
    a platform and its pilot study.
    """

    def __init__(
        self,
        committee: Committee,
        platform: CrowdsourcingPlatform,
        qss: QuerySetSelector,
        ipd: IncentivePolicyDesigner,
        cqc: CrowdQualityControl,
        mic: MachineIntelligenceCalibrator,
        ledger: BudgetLedger,
        replay_pool: DisasterDataset,
        config: CrowdLearnConfig,
        rng: np.random.Generator,
        guards: ModelGuard,
        resilience: ResiliencePolicy | None = None,
        telemetry: Telemetry | None = None,
        scheduler: VirtualTimeScheduler | None = None,
        event_id: str | None = None,
    ) -> None:
        self.committee = committee
        self.platform = platform
        self.qss = qss
        self.ipd = ipd
        self.cqc = cqc
        self.mic = mic
        self.ledger = ledger
        self.replay_pool = replay_pool
        self.config = config
        self.rng = rng
        self.resilience = resilience or ResiliencePolicy()
        #: Learning-loop guardrails; :meth:`build` constructs them from a
        #: :class:`GuardPolicy` unless handed a pre-built guard.
        self.guards = guards
        #: Telemetry pipeline; ``None`` resolves the process default (the
        #: no-op singleton unless a trace run swapped one in), so the
        #: uninstrumented path is unchanged.  Attached telemetry travels
        #: with checkpoints, keeping a resumed run's history.
        self.telemetry = telemetry
        #: Virtual-time scheduler; ``None`` keeps the loop synchronous and
        #: byte-identical to the instant-response reproduction.  Attached,
        #: each sensing cycle becomes a real deadline and late responses
        #: are harvested into later cycles (under the "harvest" policy).
        self.scheduler = scheduler
        #: Identity of the disaster event this system serves, set by the
        #: serving layer (``repro.serve``); ``None`` for standalone runs.
        #: Scopes telemetry labels.
        self.event_id = event_id
        #: Queries with late responses still in flight, by query id.
        self._straggler_queries: dict[int, StragglerRecord] = {}
        if scheduler is not None and config.straggler_policy == "harvest":
            # The platform reroutes late responses into the event queue
            # instead of dropping them; "drop" leaves platform.scheduler
            # unset so misses stay misses.
            self.platform.scheduler = scheduler

    @property
    def cache(self) -> MemoCounters:
        """Counters of the guard's holdout-score memo (``prediction_*``)
        and the committee's feature stores (``feature_*``)."""
        return MemoCounters(
            [self.guards.score_stats], feature_stores(self.committee.experts)
        )

    def _telemetry(self) -> Telemetry:
        return self.telemetry if self.telemetry is not None else get_telemetry()

    @classmethod
    def build(
        cls,
        training_set: DisasterDataset,
        committee: Committee,
        platform: CrowdsourcingPlatform,
        pilot: PilotResult,
        config: CrowdLearnConfig | None = None,
        seed: int = 0,
        resilience: ResiliencePolicy | None = None,
        guards: ModelGuard | GuardPolicy | None = None,
        telemetry: Telemetry | None = None,
        event_id: str | None = None,
    ) -> "CrowdLearnSystem":
        """Assemble the full system as the paper deploys it.

        ``committee`` is the trained {VGG16, BoVW, DDM} committee and
        ``pilot`` the pilot study run on ``platform`` (both built by
        :func:`repro.eval.runner.prepare`).  Steps: fit CQC on the pilot's
        labeled queries and warm-start the IPD bandit with the pilot's
        delays.

        ``guards`` accepts a pre-built :class:`ModelGuard`, a
        :class:`GuardPolicy` to build one from, or ``None`` for the default
        ``GuardPolicy()`` (pass ``GuardPolicy.disabled()`` to switch guards
        off); the guard's golden holdout is reserved from ``training_set``
        with its own named seed.
        """
        config = config or CrowdLearnConfig()
        seeds = SeedSequencer(seed)
        pilot_results, pilot_labels = pilot.all_labeled_results()
        cqc = CrowdQualityControl().fit(
            pilot_results, np.array(pilot_labels), rng=seeds.get("cqc")
        )

        ledger = BudgetLedger(config.budget_cents)
        ipd = IncentivePolicyDesigner(
            arms=config.incentive_levels,
            ledger=ledger,
            total_queries=max(config.total_queries, 1),
            rng=seeds.get("ipd"),
            queries_per_context=config.queries_per_context(),
        )
        ipd.warm_start(pilot)
        mic = MachineIntelligenceCalibrator(
            eta=config.mic_eta,
            replay_size=config.mic_replay_size,
            retrain=config.mic_retrain,
            reweight=config.mic_reweight,
            offload=config.mic_offload,
            warm_start=config.mic_warm_start,
            replay_buffer=config.mic_replay_buffer,
            warm_replay_sample=config.mic_warm_replay_sample,
            full_refit_every=config.mic_full_refit_every,
            warm_epochs=config.mic_warm_epochs,
        )
        if config.qss_adaptive:
            qss: QuerySetSelector = AdaptiveQuerySetSelector(
                initial_epsilon=config.qss_epsilon
            )
        else:
            qss = QuerySetSelector(config.qss_epsilon)
        if not isinstance(guards, ModelGuard):
            policy = guards if isinstance(guards, GuardPolicy) else GuardPolicy()
            guards = ModelGuard.build(
                policy, training_set, committee.n_experts, seeds.get("guards")
            )
        scheduler = None
        if config.scheduler_enabled:
            scheduler = VirtualTimeScheduler(
                cycle_seconds=config.cycle_seconds,
                max_straggler_age_seconds=(
                    config.straggler_max_cycles * config.cycle_seconds
                ),
            )
        return cls(
            committee=committee,
            platform=platform,
            qss=qss,
            ipd=ipd,
            cqc=cqc,
            mic=mic,
            ledger=ledger,
            replay_pool=training_set,
            config=config,
            rng=seeds.get("system"),
            resilience=resilience,
            guards=guards,
            telemetry=telemetry,
            scheduler=scheduler,
            event_id=event_id,
        )

    def _post_with_retries(
        self,
        metadata,
        incentive: float,
        context: TemporalContext,
        counters: ResilienceCounters,
        deadline_seconds: float | None = None,
    ) -> QueryResult:
        """Post one query, retrying outages per the resilience policy.

        Every attempt offers the same ``incentive``.  Re-raises
        :class:`PlatformUnavailable` once the retry budget is exhausted
        (immediately when resilience is disabled) and lets
        :class:`BudgetExhausted` propagate untouched.

        ``deadline_seconds`` is the cycle time left for this query.  Retry
        backoff *consumes* it (and advances the virtual clock): each wait
        shrinks the deadline forwarded to the platform, and a backoff that
        exhausts it raises :class:`PlatformUnavailable` — by the time the
        platform would accept the retry, the sensing cycle is over.
        """
        policy = self.resilience
        scheduler = self.scheduler
        attempts = policy.max_retries + 1 if policy.enabled else 1
        for attempt in range(attempts):
            if attempt:
                counters.retries += 1
                backoff = policy.backoff_base_seconds * 2 ** (attempt - 1)
                counters.backoff_seconds += backoff
                if deadline_seconds is not None:
                    deadline_seconds -= backoff
                    if scheduler is not None:
                        scheduler.advance(backoff)
                    if deadline_seconds <= 0:
                        raise PlatformUnavailable(
                            "sensing-cycle deadline exhausted during retry backoff"
                        )
            try:
                return self.platform.post_query(
                    metadata, incentive, context, ledger=self.ledger,
                    deadline_seconds=deadline_seconds,
                )
            except PlatformUnavailable:
                counters.outages_hit += 1
                if attempt == attempts - 1:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _pre_post_marks(self, counters: ResilienceCounters) -> dict:
        """Counter marks taken just before a post, to journal its deltas."""
        scheduler = self.scheduler
        return {
            "retries": counters.retries,
            "backoff_seconds": counters.backoff_seconds,
            "outages_hit": counters.outages_hit,
            "next_seq": scheduler.next_seq if scheduler is not None else 0,
            "expired": scheduler.expired_total if scheduler is not None else 0,
        }

    def _post_counter_deltas(
        self, counters: ResilienceCounters, before: dict
    ) -> dict:
        faults = self.platform.faults
        return {
            "retries": int(counters.retries - before["retries"]),
            "backoff_seconds": float(
                counters.backoff_seconds - before["backoff_seconds"]
            ),
            "outages_hit": int(counters.outages_hit - before["outages_hit"]),
            "faults_state": None if faults is None else faults.state_dict(),
        }

    def _log_failed_post(
        self, st: _CycleState, kind: str, intent: dict, before: dict | None
    ) -> None:
        """Journal a post that charged nothing.

        ``budget`` (the ledger refused the charge) and ``dropped`` (outage
        retries exhausted) have no external effects, so recovery simply
        re-executes them; the record exists to anchor crash points and to
        verify that re-execution reaches the same outcome.
        """
        if st.journal is not None:
            deltas = self._post_counter_deltas(st.counters, before)
            self._log(st, "post", {"kind": kind, **intent, **deltas})

    def _post_success_payload(
        self, result: QueryResult, paid: float, intent: dict,
        counters: ResilienceCounters, before: dict,
    ) -> dict:
        """Journal payload capturing a charged post's full effects.

        Everything :meth:`_replay_post` needs to re-apply the post without
        touching the crowd: the charge, the query id, the delivered
        responses, the scheduler events it queued, and the platform/fault
        RNG states after the call.
        """
        from repro.eval.journal import encode_pending, encode_response

        scheduler = self.scheduler
        scheduled = []
        n_expired = 0
        if scheduler is not None:
            scheduled = [
                encode_pending(e)
                for e in scheduler.events_since(before["next_seq"])
            ]
            n_expired = int(scheduler.expired_total - before["expired"])
        return {
            "kind": "posted",
            **intent,
            "paid": float(paid),
            "query_id": int(result.query.query_id),
            "image_id": result.query.image_id,
            "deadline": (
                None if result.deadline_seconds is None
                else float(result.deadline_seconds)
            ),
            "n_late": int(result.n_late),
            "n_expired": n_expired,
            "responses": [encode_response(r) for r in result.responses],
            "scheduled": scheduled,
            "rng_state": self.platform.rng.bit_generator.state,
            **self._post_counter_deltas(counters, before),
        }

    def _replay_post(
        self, cycle: SensingCycle, payload: dict, counters: ResilienceCounters
    ) -> tuple[QueryResult, float]:
        """Re-apply a journaled ``posted`` record instead of re-posting.

        Restores the retry/backoff counters (advancing virtual time by the
        recorded backoff), the fault injector's clock and RNG, and then
        the platform-side effects via
        :meth:`CrowdsourcingPlatform.restore_posted_query` — charging the
        restored (pre-post) ledger exactly once and never assigning a new
        query id.  Returns ``(result, paid)`` shaped exactly like a live
        :meth:`_post`, so the rest of the loop cannot tell a replayed post
        from a live one.
        """
        from repro.crowd.tasks import CrowdQuery
        from repro.eval.journal import decode_response

        counters.retries += int(payload["retries"])
        counters.backoff_seconds += float(payload["backoff_seconds"])
        counters.outages_hit += int(payload["outages_hit"])
        if self.scheduler is not None and payload["backoff_seconds"]:
            self.scheduler.advance(float(payload["backoff_seconds"]))
        faults = self.platform.faults
        if faults is not None and payload.get("faults_state") is not None:
            faults.restore_state(payload["faults_state"])
        paid = float(payload["paid"])
        query = CrowdQuery(
            query_id=int(payload["query_id"]),
            image_id=payload["image_id"],
            incentive_cents=paid,
            context=cycle.context,
        )
        responses = [decode_response(d) for d in payload["responses"]]
        scheduled = [
            (
                float(e["arrival_time"]),
                int(e["seq"]),
                float(e["posted_at"]),
                decode_response(e["response"]),
            )
            for e in payload["scheduled"]
        ]
        result = self.platform.restore_posted_query(
            query,
            responses,
            scheduled,
            n_late=int(payload["n_late"]),
            n_expired=int(payload["n_expired"]),
            rng_state=payload["rng_state"],
            ledger=self.ledger,
            paid_cents=paid,
            deadline_seconds=payload["deadline"],
        )
        return result, paid

    def run_cycle(
        self,
        cycle: SensingCycle,
        journal: CycleJournal | None = None,
        query_cap: int | None = None,
    ) -> CycleOutcome:
        """Execute the full CrowdLearn loop on one sensing cycle.

        ``journal`` writes every stage boundary ahead to a
        :class:`repro.eval.journal.CycleJournal` (or, in recovery, verifies
        it against the log and serves journaled posts from it).
        ``query_cap`` is the shared crowd pool's grant for this cycle;
        ``None`` selects ``config.queries_per_cycle`` queries.

        Resilience (see :class:`~repro.core.resilience.ResiliencePolicy`):
        posts that hit a platform outage are retried with backoff and, once
        the retry budget is gone, the image is *dropped* back to the AI;
        charged queries that yield zero usable responses are refunded and
        fall back to the reweighted committee's label.  Every intervention
        is tallied in the outcome's :class:`ResilienceCounters`.

        Each stage runs inside a telemetry span (``cycle.qss``,
        ``cycle.ipd.*``, ``cycle.crowd``, ``cycle.cqc``,
        ``cycle.mic.*``); with the default no-op telemetry the outcome is
        byte-identical to an uninstrumented run.

        With a :class:`~repro.crowd.scheduler.VirtualTimeScheduler`
        attached (``config.scheduler_enabled``), the cycle opens with a
        ``scheduler.harvest`` phase — virtual time advances to the cycle
        boundary and matured straggler responses are folded back into
        their queries — and every post carries the remaining cycle time as
        a hard deadline, with retry backoff consuming it.
        """
        tel = self._telemetry()
        # The system's telemetry is the context default for the cycle, so
        # spans opened deep inside (MIC refits, trainer epochs) reach it.
        with use_telemetry(tel), tel.span(
            "cycle", index=cycle.index, context=cycle.context.value
        ):
            return self._run_cycle(
                self._begin_cycle(cycle, tel, journal, query_cap)
            )

    def _cycle_worker_reliability(
        self, results: list[QueryResult]
    ) -> float | None:
        """Graded historical accuracy of this cycle's responding workers.

        Pooled over every worker who answered (malformed ``worker_id = -1``
        responses excluded): correct past answers / graded past answers.
        ``None`` until anything has been graded.  The drift detector uses
        this to avoid flagging cycles answered by workers with a proven
        track record.
        """
        worker_ids = sorted(
            {
                response.worker_id
                for result in results
                for response in result.responses
                if response.worker_id >= 0
            }
        )
        graded_total = 0
        correct_total = 0
        for worker_id in worker_ids:
            graded, correct = self.platform.worker_track_record(worker_id)
            graded_total += graded
            correct_total += correct
        if graded_total == 0:
            return None
        return correct_total / graded_total

    def _observed_delay(self, result: QueryResult) -> float:
        """The delay IPD should learn from.

        Without a deadline this is the plain mean delay (the historical
        reward).  Under the scheduler, late workers cost the requester the
        full deadline they waited — the *realized* delay — so slow crowds
        are penalized even though their answers eventually arrive.
        """
        if result.deadline_seconds is None or result.n_late == 0:
            return result.mean_delay
        return result.realized_mean_delay()

    def _absorb_stragglers(
        self, events: list[PendingResponse]
    ) -> tuple[list[DisasterImage], list[int]]:
        """Fold harvested responses back into their queries.

        Each event's response is appended to the original
        :class:`QueryResult`; CQC then re-fuses the label over the full
        (on-time + harvested) response set and re-reveals it, so worker
        track records are graded against the best label known.  Returns
        the (image, label) pairs for this cycle's MIC retraining batch.
        """
        touched: dict[int, StragglerRecord] = {}
        registry = self._straggler_queries
        for event in events:
            record = registry.get(event.query.query_id)
            if record is None:
                continue  # posted outside the loop (e.g. a direct post)
            record.result.responses.append(event.response)
            record.result.n_late = max(record.result.n_late - 1, 0)
            touched[event.query.query_id] = record
        images: list[DisasterImage] = []
        labels: list[int] = []
        # One CQC call for all touched queries: rows are scored
        # independently, so each label is the one a single-row call gives.
        truthful = self.cqc.truthful_labels(
            [record.result for record in touched.values()]
        )
        for (query_id, record), label in zip(
            touched.items(), truthful.tolist()
        ):
            self.platform.reveal_ground_truth(query_id, label)
            images.append(record.image)
            labels.append(label)
            if not self.scheduler.has_pending(query_id):
                del registry[query_id]
        return images, labels

    def _run_cycle(self, st: _CycleState) -> CycleOutcome:
        """The stage driver: one span and one journal record per stage.

        Stage and span names, span attributes, journal stage names,
        payloads and their order are a durable format: crash recovery
        re-executes a cycle and verifies every append against the log, and
        crash points are keyed on the journal stage names.
        """
        cycle, tel = st.cycle, st.tel
        self._log(st, "cycle_start", {"context": cycle.context.value})
        if self.scheduler is not None:
            with tel.span("scheduler.harvest", cycle=cycle.index) as span:
                harvest = self._harvest(st)
                if tel.enabled:
                    span.set(**harvest)
            self._log(st, "harvest", harvest)
        # ① committee votes and query selection.
        with tel.span("cycle.committee"):
            entropy = self._committee_entropy(st)
        with tel.span("cycle.qss"):
            st.query_indices = self._select_queries(st, entropy)
        self._log(st, "qss", {"indices": [int(i) for i in st.query_indices]})
        # ② pricing and posting; per-post records are journaled inside.
        with tel.span("cycle.crowd", queries=len(st.query_indices)):
            self._crowd(st)
        # ③ quality control + ④ calibration (only if anything was queried).
        if st.results:
            with tel.span("cycle.cqc", queries=len(st.results)):
                fused = self._quality_control(st)
            self._log(st, "cqc", fused)
            self._log(st, "guard", self._observe_labels(st))
            with tel.span("cycle.mic.reweight"):
                self._reweight(st)
        # Harvested stragglers are retrained on even when nothing new was
        # queried; with neither, retraining would only push snapshots.
        if st.results or st.straggler_images:
            with tel.span("cycle.mic.retrain"):
                self._retrain(st)
            self._log(st, "retrain", {})
        if st.results:
            with tel.span("cycle.ipd.observe"):
                self._observe_delays(st)
        final_labels, final_scores = self._publish(st)
        if tel.enabled:
            self._record_metrics(st)
        self._log(st, "cycle_end", {"cost_cents": float(st.cost)})
        return CycleOutcome(
            cycle_index=cycle.index,
            context=cycle.context,
            true_labels=st.dataset.labels(),
            final_labels=final_labels,
            final_scores=final_scores,
            query_indices=st.query_indices,
            incentives_cents=np.array(st.incentives),
            crowd_delay=st.crowd_delay,
            cost_cents=st.cost,
            expert_weights=self.committee.weights,
            resilience=st.counters,
            guards=st.gcounters,
        )

    def _log(self, st: _CycleState, stage: str, payload) -> None:
        """Journal one stage boundary (verified against the log in recovery)."""
        if st.journal is not None:
            st.journal.append(st.cycle.index, stage, payload)

    def _begin_cycle(
        self,
        cycle: SensingCycle,
        tel: Telemetry,
        journal: CycleJournal | None,
        query_cap: int | None,
    ) -> _CycleState:
        guard = self.guards
        if guard.n_experts != self.committee.n_experts:
            # A new committee was swapped into a live system: per-expert
            # guard memory no longer describes anything real.
            guard.rebind(self.committee.n_experts)
        return _CycleState(
            cycle=cycle,
            tel=tel,
            dataset=cycle.dataset(),
            mask=guard.active_mask(),
            truth_dists=np.empty((0, self.committee.experts[0].n_classes)),
            cache_stats=self.cache.stats(),
            journal=journal,
            query_cap=query_cap,
        )

    def _harvest(self, st: _CycleState) -> dict:
        """Advance virtual time to this cycle's boundary and harvest the
        straggler responses that arrived while the requester slept."""
        scheduler = self.scheduler
        scheduler.advance_to(scheduler.cycle_start(st.cycle.index))
        harvested = self.platform.collect_stragglers()
        if harvested:
            st.counters.stragglers_harvested += len(harvested)
            st.straggler_images, st.straggler_labels = self._absorb_stragglers(harvested)
        return {"harvested": len(harvested), "pending": scheduler.pending_count}

    def _committee_entropy(self, st: _CycleState) -> np.ndarray:
        """Expert votes, and their entropy over the unquarantined members."""
        st.votes = self.committee.expert_votes(st.dataset)
        return self.committee.committee_entropy(st.dataset, st.votes, mask=st.mask)

    def _select_queries(self, st: _CycleState, entropy: np.ndarray) -> np.ndarray:
        cap = st.query_cap
        desired = self.config.queries_per_cycle if cap is None else cap
        return self.qss.select(entropy, min(desired, len(st.dataset)), self.rng)

    def _crowd(self, st: _CycleState) -> None:
        """Price and post every selected query, then keep what was posted."""
        counters = st.counters
        for index in st.query_indices:
            deadline = None
            if self.scheduler is not None:
                # What is left of this sensing cycle is the query's
                # deadline: retry backoff already spent is gone.
                deadline = self.config.cycle_seconds - counters.backoff_seconds
                if deadline <= 0:
                    counters.dropped_queries += 1
                    continue  # the cycle is over before we could post
            with st.tel.span("cycle.ipd.price"):
                arm, incentive = self.ipd.price_query(st.cycle.context)
            try:
                posted = self._post(st, index, arm, incentive, deadline)
            except BudgetExhausted:
                break  # budget gone: images stay with the AI
            if posted is not None:
                self._settle(st, index, arm, *posted)
        st.query_indices = np.array(st.posted_indices, dtype=np.int64)

    def _post(
        self, st: _CycleState, index, arm: int, incentive: float,
        deadline: float | None,
    ) -> tuple[QueryResult, float] | None:
        """Post one query (``post_intent`` and ``post`` journaled).

        Returns ``(result, paid)``, or ``None`` when outage retries ran
        out and the image stays with the AI.  A post the journal already
        holds is replayed from it instead of re-posted.
        """
        cycle, counters, jrn = st.cycle, st.counters, st.journal
        intent = {"index": int(index), "arm": int(arm), "incentive": float(incentive)}
        replayed = before = None
        if jrn is not None:
            jrn.append(cycle.index, "post_intent", intent)
            replayed = jrn.peek_replay(cycle.index, "post")
            before = self._pre_post_marks(counters)
        if replayed is not None and replayed.get("kind") == "posted":
            # The crashed run already paid for this query: apply the
            # journaled effects, never post or charge again.
            result, paid = self._replay_post(cycle, replayed, counters)
            jrn.append(cycle.index, "post", replayed)
            jrn.requeries_avoided_cents += paid
            return result, paid
        try:
            result = self._post_with_retries(
                st.dataset[int(index)].metadata, incentive, cycle.context,
                counters, deadline_seconds=deadline,
            )
        except BudgetExhausted:
            self._log_failed_post(st, "budget", intent, before)
            raise
        except PlatformUnavailable:
            if not self.resilience.enabled:
                raise
            counters.dropped_queries += 1
            self._log_failed_post(st, "dropped", intent, before)
            return None
        if jrn is not None:
            payload = self._post_success_payload(
                result, incentive, intent, counters, before
            )
            jrn.append(cycle.index, "post", payload)
        return result, incentive

    def _settle(
        self, st: _CycleState, index, arm: int, result: QueryResult,
        paid: float,
    ) -> None:
        """Account for one charged post: keep it, or fall back to the AI."""
        counters = st.counters
        if result.n_late and self.platform.scheduler is not None:
            # Late responses are still in flight; harvest folds them in.
            self._straggler_queries[result.query.query_id] = StragglerRecord(
                image=st.dataset[int(index)], result=result
            )
        if not result.responses and self.resilience.enabled:
            if result.n_late:
                # Every worker answered — after the deadline.  The money
                # is spent on submitted work (no refund), IPD observes the
                # realized cost of waiting the cycle out, and (under
                # "harvest") the answers arrive as stragglers in a later
                # cycle.
                counters.late_queries += 1
                counters.late_spent_cents += paid
                st.cost += paid
                st.incentives.append(paid)
                self.ipd.observe(
                    st.cycle.context, arm, self._observed_delay(result)
                )
            else:
                # Charged, but nobody submitted anything (abandonment):
                # refund and keep the committee's label.
                self.ledger.refund(paid)
                counters.refunds += 1
                counters.refunded_cents += paid
            counters.fallbacks += 1
            return
        # On time, or partially late: the on-time responses proceed
        # through CQC now.
        st.incentives.append(paid)
        st.arms.append(arm)
        st.results.append(result)
        st.posted_indices.append(int(index))
        st.cost += paid

    def _quality_control(self, st: _CycleState) -> dict:
        """Fuse the crowd's labels and grade the workers who gave them."""
        results = st.results
        st.truthful, st.truth_dists = self.cqc.fuse(results)
        # Reliability must be read *before* this cycle's answers are
        # graded, so it reflects strictly historical behaviour.
        st.reliability = self._cycle_worker_reliability(results)
        for result, label in zip(results, st.truthful):
            self.platform.reveal_ground_truth(result.query.query_id, int(label))
        return {"labels": [int(x) for x in st.truthful],
                "query_ids": [int(r.query.query_id) for r in results]}

    def _observe_labels(self, st: _CycleState) -> dict:
        """Feed the fused labels to adaptive QSS and the guard.

        The guard rescores the committee (quarantine) and flags the cycle
        when the labels drift anomalously from the committee's consensus.
        """
        guard = self.guards
        pre_vote = self.committee.committee_vote(
            st.dataset, st.votes, mask=st.mask
        )
        # VDBE extension: feed the surprise (mean committee-vs-truth
        # divergence on the query set) back into an adaptive QSS.
        if isinstance(self.qss, AdaptiveQuerySetSelector):
            surprise = float(
                np.mean(
                    batch_bounded_divergence(
                        pre_vote[st.query_indices], st.truth_dists
                    )
                )
            )
            self.qss.observe_surprise(surprise)
        guard.observe_committee(self.committee, st.gcounters)
        st.mask = guard.active_mask()
        consensus = np.argmax(pre_vote[st.query_indices], axis=1)
        st.flagged = guard.observe_labels(
            consensus, st.truthful, st.reliability, st.gcounters
        )
        return {"flagged": bool(st.flagged)}

    def _reweight(self, st: _CycleState) -> None:
        if st.flagged and self.mic.reweight:
            st.gcounters.reweights_skipped += 1
            return
        self.mic.update_weights(
            self.committee,
            [v[st.query_indices] for v in st.votes],
            st.truth_dists,
            active_mask=st.mask,
        )

    def _retrain(self, st: _CycleState) -> None:
        """Guarded MIC retraining on the crowd labels and stragglers.

        Harvested straggler labels join the batch — late answers still
        teach, they just teach later — unless the cycle was flagged, in
        which case nothing is retrained.
        """
        query_images = [st.dataset[int(i)] for i in st.query_indices]
        images, labels = query_images, st.truthful
        if st.straggler_images and not st.flagged:
            images = query_images + st.straggler_images
            labels = np.concatenate(
                [
                    np.asarray(st.truthful, dtype=np.int64),
                    np.asarray(st.straggler_labels, dtype=np.int64),
                ]
            )
            if st.tel.enabled:
                st.tel.counter(
                    "stragglers_retrained_total",
                    help="straggler labels fed into MIC retraining",
                ).inc(len(st.straggler_images))
        if st.flagged:
            if self.mic.retrain and query_images:
                st.gcounters.retrains_skipped += 1
            return
        self.guards.guarded_retrain(
            self.mic,
            self.committee,
            images,
            labels,
            self.replay_pool,
            self.rng,
            st.gcounters,
            telemetry=st.tel,
        )

    def _observe_delays(self, st: _CycleState) -> None:
        """Reward IPD with each query's observed delay."""
        delays = [self._observed_delay(r) for r in st.results]
        for arm, delay in zip(st.arms, delays):
            self.ipd.observe(st.cycle.context, arm, delay)
        st.crowd_delay = float(np.mean(delays))

    def _publish(self, st: _CycleState) -> tuple[np.ndarray, np.ndarray]:
        """Final labels and scores: the reweighted committee, with the
        query set offloaded to the crowd.

        A cycle the drift detector flagged keeps the committee's own
        labels: labels too anomalous to train on are too anomalous to
        publish.
        """
        vote = self.committee.committee_vote(st.dataset, st.votes, mask=st.mask)
        labels = np.argmax(vote, axis=1)
        if st.flagged and self.mic.offload:
            st.gcounters.offloads_skipped += 1
            return labels, vote
        return (
            self.mic.offload_labels(labels, st.query_indices, st.truthful),
            self.mic.offload_distributions(
                vote, st.query_indices, st.truth_dists
            ),
        )

    def _record_metrics(self, st: _CycleState) -> None:
        """Bridge the cycle's books into the telemetry registry."""
        tel = st.tel
        responses = sum(len(r.responses) for r in st.results)
        for name, help_text, amount in (
            ("cycles_total", "sensing cycles completed", 1.0),
            ("queries_posted_total", "crowd queries paid and kept", len(st.results)),
            ("responses_total", "worker responses received", responses),
            ("cost_cents_total", "crowd spend charged (cents)", st.cost),
        ):
            tel.counter(name, help=help_text).inc(amount)
        for paid in st.incentives:
            tel.histogram(
                "incentive_cents", help="paid incentive per query",
                buckets=(0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
            ).observe(paid)
        if st.crowd_delay:
            tel.histogram(
                "crowd_delay_seconds", help="mean crowd delay per cycle",
            ).observe(st.crowd_delay)
        tel.gauge(
            "budget_remaining_cents", help="ledger budget left"
        ).set(self.ledger.remaining)
        tel.merge_counters(
            {f"{k}_total": v for k, v in st.counters.as_dict().items()},
            prefix="resilience_",
            help="resilience interventions (see repro.core.resilience)",
        )
        tel.merge_counters(
            {f"{k}_total": v for k, v in st.gcounters.as_dict().items()},
            prefix="guard_",
            help="guard interventions (see repro.core.guards)",
        )
        after = self.cache.stats()
        tel.merge_counters(
            {f"{k}_total": after[k] - v for k, v in st.cache_stats.items()},
            prefix="cache_",
            help="holdout-score and feature memo activity (see repro.core.cache)",
        )

    def run(
        self,
        stream: SensingCycleStream,
        checkpoint_path: str | Path | None = None,
        journal: CycleJournal | None = None,
    ) -> RunOutcome:
        """Run the system over an entire sensing-cycle stream.

        With ``checkpoint_path`` set, the full deployment state (system,
        stream, completed outcomes) is snapshotted after every completed
        cycle via :func:`repro.eval.persistence.commit_cycle`, so a crashed
        run can continue from the last completed cycle with
        :func:`repro.eval.journal.resume_run` and produce the same final
        outcome as an uninterrupted run.

        With ``journal`` set (a :class:`repro.eval.journal.CycleJournal`),
        every intra-cycle stage boundary is additionally written ahead to
        the journal and the file is rotated at each checkpoint, so a run
        killed *mid-cycle* can be resumed with
        :func:`repro.eval.journal.resume_run` — journaled crowd posts are
        served from the log instead of being re-posted and re-charged.  A
        journal without ``checkpoint_path`` raises :class:`ValueError`: it
        would never rotate, so its records would span cycles no resume
        can replay.
        """
        if journal is not None and checkpoint_path is None:
            raise ValueError(
                "a journal requires checkpoint_path: an unrotated journal "
                "spans cycles no resume can replay"
            )
        return self._run_from(stream, RunOutcome(), 0, checkpoint_path,
                              journal=journal)

    def _run_from(
        self,
        stream: SensingCycleStream,
        outcome: RunOutcome,
        start_cycle: int,
        checkpoint_path: str | Path | None,
        journal: CycleJournal | None = None,
    ) -> RunOutcome:
        from repro.eval.persistence import commit_cycle

        for t in range(start_cycle, len(stream)):
            outcome.append(self.run_cycle(stream.cycle(t), journal=journal))
            if checkpoint_path is not None:
                commit_cycle(checkpoint_path, self, stream, outcome, t + 1,
                             journal)
        return outcome
