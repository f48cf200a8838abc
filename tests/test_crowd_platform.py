"""Tests for repro.crowd.platform."""

import numpy as np
import pytest

from repro.bandit.budget import BudgetExhausted, BudgetLedger
from repro.data.metadata import (
    DamageLabel,
    FailureArchetype,
    ImageMetadata,
    SceneType,
)
from repro.utils.clock import TemporalContext


def meta(image_id=0, label=DamageLabel.SEVERE):
    return ImageMetadata(
        image_id=image_id,
        true_label=label,
        archetype=FailureArchetype.NONE,
        scene=SceneType.BUILDING,
        is_fake=False,
        people_in_danger=False,
        apparent_label=label,
    )


class TestPostQuery:
    def test_returns_requested_responses(self, platform):
        result = platform.post_query(meta(), 8.0, TemporalContext.EVENING)
        assert len(result.responses) == 5
        assert result.query.incentive_cents == 8.0

    def test_query_ids_increment(self, platform):
        a = platform.post_query(meta(), 4.0, TemporalContext.MORNING)
        b = platform.post_query(meta(), 4.0, TemporalContext.MORNING)
        assert b.query.query_id == a.query.query_id + 1
        assert platform.n_queries_posted == 2

    def test_distinct_workers_per_query(self, platform):
        result = platform.post_query(meta(), 4.0, TemporalContext.MORNING)
        ids = result.worker_ids()
        assert len(set(ids)) == len(ids)

    def test_delays_positive(self, platform):
        result = platform.post_query(meta(), 4.0, TemporalContext.MIDNIGHT)
        assert all(r.delay_seconds > 0 for r in result.responses)

    def test_charges_ledger(self, platform):
        ledger = BudgetLedger(10.0)
        platform.post_query(meta(), 4.0, TemporalContext.MORNING, ledger=ledger)
        assert ledger.spent == pytest.approx(4.0)

    def test_budget_exhaustion_propagates(self, platform):
        ledger = BudgetLedger(3.0)
        with pytest.raises(BudgetExhausted):
            platform.post_query(meta(), 4.0, TemporalContext.MORNING, ledger=ledger)

    def test_higher_incentive_faster_in_morning(self, platform):
        cheap = [
            platform.post_query(meta(), 1.0, TemporalContext.MORNING).mean_delay
            for _ in range(30)
        ]
        rich = [
            platform.post_query(meta(), 20.0, TemporalContext.MORNING).mean_delay
            for _ in range(30)
        ]
        assert np.mean(rich) < np.mean(cheap)

    def test_crowd_roughly_eighty_percent_accurate(self, platform):
        """The pilot's headline observation (§IV-C)."""
        correct = 0
        total = 0
        for i in range(60):
            result = platform.post_query(meta(i), 8.0, TemporalContext.EVENING)
            for response in result.responses:
                correct += int(response.label == DamageLabel.SEVERE)
                total += 1
        assert 0.7 < correct / total < 0.95


class TestHistory:
    def test_history_grows(self, platform):
        platform.post_query(meta(), 4.0, TemporalContext.MORNING)
        assert len(platform.history) == 5

    def test_reveal_ground_truth_grades(self, platform):
        result = platform.post_query(meta(), 4.0, TemporalContext.MORNING)
        platform.reveal_ground_truth(result.query.query_id, int(DamageLabel.SEVERE))
        graded_total = 0
        for response in result.responses:
            graded, correct = platform.worker_track_record(response.worker_id)
            graded_total += graded
            assert correct <= graded
        assert graded_total >= 5

    def test_ungraded_track_record_empty(self, platform):
        platform.post_query(meta(), 4.0, TemporalContext.MORNING)
        worker_id = platform.history[0].worker_id
        graded, correct = platform.worker_track_record(worker_id)
        assert (graded, correct) == (0, 0)

    def test_invalid_workers_per_query(self, population, rng):
        from repro.crowd.delay import DelayModel
        from repro.crowd.platform import CrowdsourcingPlatform
        from repro.crowd.quality import QualityModel

        with pytest.raises(ValueError):
            CrowdsourcingPlatform(
                population=population,
                delay_model=DelayModel(),
                quality_model=QualityModel(),
                rng=rng,
                workers_per_query=0,
            )


class TestHistoryIndex:
    """Regression tests for the query-id history index behind O(1) grading."""

    def test_index_consistent_with_history(self, platform):
        results = [
            platform.post_query(meta(i), 4.0, TemporalContext.EVENING)
            for i in range(12)
        ]
        index = platform._history_by_query
        # Every history position appears exactly once, under its query id.
        all_positions = sorted(pos for rows in index.values() for pos in rows)
        assert all_positions == list(range(len(platform.history)))
        for result in results:
            qid = result.query.query_id
            assert [platform.history[i].query_id for i in index[qid]] == (
                [qid] * len(result.responses)
            )

    def test_grading_matches_full_scan(self, platform):
        """Indexed reveal must agree with a brute-force history scan."""
        results = [
            platform.post_query(meta(i), 4.0, TemporalContext.EVENING)
            for i in range(10)
        ]
        for result in results[::2]:  # grade every other query
            platform.reveal_ground_truth(
                result.query.query_id, int(DamageLabel.SEVERE)
            )
        worker_ids = {e.worker_id for e in platform.history}
        for worker_id in worker_ids:
            graded = [
                e for e in platform.history
                if e.worker_id == worker_id and e.correct is not None
            ]
            expected = (len(graded), sum(1 for e in graded if e.correct))
            assert platform.worker_track_record(worker_id) == expected

    def test_reveal_unknown_query_is_harmless(self, platform):
        platform.post_query(meta(), 4.0, TemporalContext.EVENING)
        before = list(platform.history)
        platform.reveal_ground_truth(99999, int(DamageLabel.SEVERE))
        assert platform.history == before

    def test_reveal_only_touches_its_query(self, platform):
        a = platform.post_query(meta(0), 4.0, TemporalContext.EVENING)
        platform.post_query(meta(1), 4.0, TemporalContext.EVENING)
        platform.reveal_ground_truth(a.query.query_id, int(DamageLabel.SEVERE))
        for entry in platform.history:
            if entry.query_id == a.query.query_id:
                assert entry.correct is not None
            else:
                assert entry.correct is None
