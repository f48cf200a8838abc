"""Unit tests for the virtual-time scheduler layer.

Covers :mod:`repro.crowd.scheduler` itself (event ordering, harvest,
expiry, snapshots), the clock's forwards-only ``advance_to``, the delay
model's analytic lateness tail, and the platform-level straggler paths:
late responses becoming pending events, harvest recording (deduped)
history, and batch posting that survives mid-batch faults.
"""

import numpy as np
import pytest

from repro.crowd.delay import DelayModel
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.quality import QualityModel
from repro.crowd.scheduler import PendingResponse, VirtualTimeScheduler
from repro.crowd.tasks import (
    CrowdQuery,
    QuestionnaireAnswers,
    WorkerResponse,
)
from repro.data.metadata import (
    DamageLabel,
    FailureArchetype,
    ImageMetadata,
    SceneType,
)
from repro.utils.clock import SECONDS_PER_CYCLE, SimulatedClock, TemporalContext


def meta(image_id=0):
    return ImageMetadata(
        image_id=image_id,
        true_label=DamageLabel.SEVERE,
        archetype=FailureArchetype.NONE,
        scene=SceneType.BUILDING,
        is_fake=False,
        people_in_danger=False,
        apparent_label=DamageLabel.SEVERE,
    )


def query(query_id=0):
    return CrowdQuery(
        query_id=query_id,
        image_id=query_id,
        incentive_cents=8.0,
        context=TemporalContext.MORNING,
    )


def response(worker_id=0, delay=700.0):
    return WorkerResponse(
        worker_id=worker_id,
        label=DamageLabel.SEVERE,
        questionnaire=QuestionnaireAnswers(
            says_fake=False,
            scene=SceneType.BUILDING,
            says_people_in_danger=False,
        ),
        delay_seconds=delay,
    )


class TestClockAdvanceTo:
    def test_advances_forwards(self):
        clock = SimulatedClock()
        assert clock.advance_to(100.0) == 100.0
        assert clock.elapsed_seconds == 100.0

    def test_never_goes_backwards(self):
        clock = SimulatedClock()
        clock.advance(500.0)
        assert clock.advance_to(100.0) == 500.0
        assert clock.elapsed_seconds == 500.0

    def test_noop_at_exact_target(self):
        clock = SimulatedClock()
        clock.advance(300.0)
        assert clock.advance_to(300.0) == 300.0


class TestSchedulerBasics:
    def test_defaults(self):
        sched = VirtualTimeScheduler()
        assert sched.now == 0.0
        assert sched.cycle_seconds == SECONDS_PER_CYCLE
        assert sched.pending_count == 0
        assert sched.next_arrival is None

    def test_validation(self):
        with pytest.raises(ValueError):
            VirtualTimeScheduler(cycle_seconds=0.0)
        with pytest.raises(ValueError):
            VirtualTimeScheduler(max_straggler_age_seconds=-1.0)
        with pytest.raises(ValueError):
            VirtualTimeScheduler().cycle_start(-1)

    def test_cycle_start(self):
        sched = VirtualTimeScheduler(cycle_seconds=600.0)
        assert sched.cycle_start(0) == 0.0
        assert sched.cycle_start(3) == 1800.0

    def test_schedule_and_collect_in_arrival_order(self):
        sched = VirtualTimeScheduler()
        assert sched.schedule(query(0), response(0, delay=900.0))
        assert sched.schedule(query(1), response(1, delay=650.0))
        assert sched.pending_count == 2
        assert sched.next_arrival == 650.0
        due = sched.collect_due(now=1000.0)
        assert [e.arrival_time for e in due] == [650.0, 900.0]
        assert sched.pending_count == 0

    def test_collect_due_respects_virtual_time(self):
        sched = VirtualTimeScheduler()
        sched.schedule(query(0), response(0, delay=700.0))
        assert sched.collect_due() == []  # clock still at 0
        sched.advance_to(600.0)
        assert sched.collect_due() == []  # arrives at 700
        sched.advance_to(1200.0)
        assert len(sched.collect_due()) == 1

    def test_ties_break_by_schedule_order(self):
        sched = VirtualTimeScheduler()
        sched.schedule(query(0), response(0, delay=700.0))
        sched.schedule(query(1), response(1, delay=700.0))
        due = sched.collect_due(now=700.0)
        assert [e.query.query_id for e in due] == [0, 1]

    def test_arrival_relative_to_posting_time(self):
        sched = VirtualTimeScheduler()
        sched.advance(600.0)
        sched.schedule(query(0), response(0, delay=100.0))
        event = sched.collect_due(now=700.0)[0]
        assert event.arrival_time == 700.0
        assert event.posted_at == 600.0
        assert event.age_seconds == 100.0

    def test_has_pending_per_query(self):
        sched = VirtualTimeScheduler()
        sched.schedule(query(7), response(0, delay=700.0))
        sched.schedule(query(7), response(1, delay=800.0))
        assert sched.has_pending(7)
        assert not sched.has_pending(8)
        sched.collect_due(now=750.0)
        assert sched.has_pending(7)  # one response still in flight
        sched.collect_due(now=900.0)
        assert not sched.has_pending(7)

    def test_max_age_expires_at_schedule_time(self):
        sched = VirtualTimeScheduler(max_straggler_age_seconds=1000.0)
        assert not sched.schedule(query(0), response(0, delay=1500.0))
        assert sched.schedule(query(1), response(1, delay=900.0))
        assert sched.pending_count == 1
        assert sched.expired_total == 1

    def test_snapshot_is_json_safe(self):
        import json

        sched = VirtualTimeScheduler()
        sched.schedule(query(0), response(0, delay=700.0))
        snap = sched.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["pending_events"] == 1
        assert snap["next_arrival_seconds"] == 700.0

    def test_pending_response_ordering(self):
        a = PendingResponse(10.0, 0, query(0), response(0))
        b = PendingResponse(10.0, 1, query(1), response(1))
        c = PendingResponse(5.0, 2, query(2), response(2))
        assert sorted([b, a, c]) == [c, a, b]


def make_platform(population, rng=None, scheduler=None):
    return CrowdsourcingPlatform(
        population=population,
        delay_model=DelayModel(),
        quality_model=QualityModel(),
        rng=rng if rng is not None else np.random.default_rng(12345),
        workers_per_query=5,
        scheduler=scheduler,
    )


class TestPlatformScheduling:
    def test_late_responses_become_pending_events(self, population):
        sched = VirtualTimeScheduler()
        platform = make_platform(population, scheduler=sched)
        total_late = 0
        for i in range(10):
            result = platform.post_query(
                meta(i), 1.0, TemporalContext.MORNING, deadline_seconds=300.0
            )
            total_late += result.n_late
        assert total_late > 0  # 1c morning crowd is slow (mean ~1150s)
        assert sched.pending_count == total_late

    def test_result_records_late_count_and_deadline(self, population):
        platform = make_platform(population)
        result = platform.post_query(
            meta(), 1.0, TemporalContext.MORNING, deadline_seconds=300.0
        )
        assert result.deadline_seconds == 300.0
        assert result.n_late == 5 - len(result.responses)

    def test_no_scheduler_drops_late_as_before(self, population):
        platform = make_platform(population)
        result = platform.post_query(
            meta(), 1.0, TemporalContext.MORNING, deadline_seconds=300.0
        )
        assert result.n_late > 0
        assert platform.collect_stragglers() == []

    def test_harvest_records_history_once(self, population):
        sched = VirtualTimeScheduler()
        platform = make_platform(population, scheduler=sched)
        result = platform.post_query(
            meta(), 1.0, TemporalContext.MORNING, deadline_seconds=300.0
        )
        on_time = len(result.responses)
        assert result.n_late > 0
        sched.advance_to(10 * SECONDS_PER_CYCLE)
        harvested = platform.collect_stragglers()
        assert len(harvested) == result.n_late
        assert len(platform.history) == on_time + result.n_late
        # harvesting again returns nothing and appends nothing
        assert platform.collect_stragglers() == []
        assert len(platform.history) == on_time + result.n_late

    def test_harvested_stragglers_gradeable(self, population):
        sched = VirtualTimeScheduler()
        platform = make_platform(population, scheduler=sched)
        result = platform.post_query(
            meta(), 1.0, TemporalContext.MORNING, deadline_seconds=300.0
        )
        sched.advance_to(10 * SECONDS_PER_CYCLE)
        harvested = platform.collect_stragglers()
        platform.reveal_ground_truth(
            result.query.query_id, int(DamageLabel.SEVERE)
        )
        for event in harvested:
            graded, _ = platform.worker_track_record(
                event.response.worker_id
            )
            assert graded >= 1

    def test_realized_mean_delay_charges_deadline_for_late(self):
        result_query = query()
        from repro.crowd.tasks import QueryResult

        result = QueryResult(
            query=result_query,
            responses=[response(0, delay=100.0)],
            n_late=1,
            deadline_seconds=600.0,
        )
        assert result.realized_mean_delay() == pytest.approx((100.0 + 600.0) / 2)
        assert result.mean_delay == pytest.approx(100.0)

    def test_realized_equals_mean_without_deadline(self):
        from repro.crowd.tasks import QueryResult

        result = QueryResult(query=query(), responses=[response(0, 100.0)])
        assert result.realized_mean_delay() == result.mean_delay
