"""Tests for repro.truth.voting."""

import numpy as np
import pytest

from repro.crowd.tasks import (
    CrowdQuery,
    QueryResult,
    QuestionnaireAnswers,
    WorkerResponse,
)
from repro.data.metadata import DamageLabel, SceneType
from repro.truth.voting import MajorityVote
from repro.utils.clock import TemporalContext


def result_of(labels, query_id=0):
    responses = [
        WorkerResponse(
            worker_id=i,
            label=label,
            questionnaire=QuestionnaireAnswers(
                says_fake=False, scene=SceneType.ROAD, says_people_in_danger=False
            ),
            delay_seconds=1.0,
        )
        for i, label in enumerate(labels)
    ]
    return QueryResult(
        query=CrowdQuery(query_id, 0, 1.0, TemporalContext.MORNING),
        responses=responses,
    )


class TestVoteDistribution:
    def test_counts_normalized(self):
        result = result_of(
            [DamageLabel.SEVERE, DamageLabel.SEVERE, DamageLabel.NO_DAMAGE]
        )
        (dist,) = MajorityVote().label_distributions([result])
        np.testing.assert_allclose(dist, [1 / 3, 0.0, 2 / 3])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            MajorityVote().label_distributions([result_of([])])


class TestMajorityVote:
    def test_plurality_wins(self):
        result = result_of(
            [
                DamageLabel.MODERATE,
                DamageLabel.MODERATE,
                DamageLabel.SEVERE,
            ]
        )
        assert MajorityVote().truthful_labels([result])[0] == DamageLabel.MODERATE

    def test_tie_breaks_to_lower_label(self):
        result = result_of([DamageLabel.NO_DAMAGE, DamageLabel.SEVERE])
        assert MajorityVote().truthful_labels([result])[0] == DamageLabel.NO_DAMAGE


class TestAggregateByVoting:
    def test_batch(self):
        results = [
            result_of([DamageLabel.SEVERE] * 3, query_id=0),
            result_of([DamageLabel.NO_DAMAGE] * 3, query_id=1),
        ]
        labels = MajorityVote().truthful_labels(results)
        np.testing.assert_array_equal(labels, [2, 0])

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            MajorityVote().truthful_labels([])
