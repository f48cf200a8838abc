"""Tests for repro.truth.filtering."""

import numpy as np
import pytest

from repro.data.metadata import (
    DamageLabel,
    FailureArchetype,
    ImageMetadata,
    SceneType,
)
from repro.truth.filtering import QualityFilter
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


def grade_worker_history(platform, worker_id, n, n_correct):
    """Inject a synthetic graded history for one worker.

    Goes through ``_record_history`` + ``reveal_ground_truth`` (rather than
    appending pre-graded rows) so the platform's running per-worker
    graded/correct index sees every entry, exactly as live grading would.
    """
    from repro.crowd.platform import WorkerHistoryEntry

    for i in range(n):
        platform._record_history(
            WorkerHistoryEntry(
                worker_id=worker_id,
                query_id=10_000 + i,
                label=0 if i < n_correct else 1,
                correct=None,
            )
        )
        platform.reveal_ground_truth(10_000 + i, 0)


class TestQualityFilter:
    def test_cold_start_not_blacklisted(self, platform):
        filter_ = QualityFilter(platform=platform, min_history=5)
        assert not filter_.is_blacklisted(0)

    def test_poor_history_blacklisted(self, platform):
        grade_worker_history(platform, 7, n=10, n_correct=3)
        filter_ = QualityFilter(platform=platform, min_history=5, min_accuracy=0.7)
        assert filter_.is_blacklisted(7)

    def test_good_history_kept(self, platform):
        grade_worker_history(platform, 8, n=10, n_correct=9)
        filter_ = QualityFilter(platform=platform, min_history=5, min_accuracy=0.7)
        assert not filter_.is_blacklisted(8)

    def test_filtered_vote_drops_bad_workers(self, platform):
        result = platform.post_query(meta(), 8.0, TemporalContext.EVENING)
        # Blacklist every responder except the first; the aggregate must
        # then equal the first responder's label.
        keep = result.responses[0]
        for response in result.responses[1:]:
            grade_worker_history(platform, response.worker_id, n=10, n_correct=0)
        filter_ = QualityFilter(platform=platform)
        assert filter_.truthful_labels([result])[0] == int(keep.label)

    def test_all_blacklisted_falls_back_to_plain_vote(self, platform):
        result = platform.post_query(meta(), 8.0, TemporalContext.EVENING)
        for response in result.responses:
            grade_worker_history(platform, response.worker_id, n=10, n_correct=0)
        filter_ = QualityFilter(platform=platform)
        from repro.truth.voting import MajorityVote

        np.testing.assert_array_equal(
            filter_.truthful_labels([result]),
            MajorityVote().truthful_labels([result]),
        )

    def test_aggregate_batch(self, platform):
        results = [
            platform.post_query(meta(i), 8.0, TemporalContext.EVENING)
            for i in range(10)
        ]
        labels = QualityFilter(platform=platform).truthful_labels(results)
        assert labels.shape == (10,)
        # On honest severe images with a decent pool, most should be right.
        assert np.mean(labels == int(DamageLabel.SEVERE)) > 0.7

    def test_empty_batch_raises(self, platform):
        with pytest.raises(ValueError):
            QualityFilter(platform=platform).truthful_labels([])
