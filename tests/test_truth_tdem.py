"""Tests for repro.truth.tdem (EM truth discovery)."""

import numpy as np
import pytest

from repro.crowd.tasks import (
    CrowdQuery,
    QueryResult,
    QuestionnaireAnswers,
    WorkerResponse,
)
from repro.data.metadata import DamageLabel, SceneType
from repro.truth.tdem import TruthDiscoveryEM
from repro.utils.clock import TemporalContext


def synthetic_results(rng, n_queries, worker_reliability, n_classes=3):
    """Queries answered by a fixed worker panel with known reliabilities."""
    truths = rng.integers(0, n_classes, size=n_queries)
    results = []
    for q in range(n_queries):
        responses = []
        for worker_id, reliability in enumerate(worker_reliability):
            if rng.random() < reliability:
                label = truths[q]
            else:
                label = (truths[q] + rng.integers(1, n_classes)) % n_classes
            responses.append(
                WorkerResponse(
                    worker_id=worker_id,
                    label=DamageLabel(int(label)),
                    questionnaire=QuestionnaireAnswers(
                        says_fake=False,
                        scene=SceneType.ROAD,
                        says_people_in_danger=False,
                    ),
                    delay_seconds=1.0,
                )
            )
        results.append(
            QueryResult(
                query=CrowdQuery(q, q, 1.0, TemporalContext.MORNING),
                responses=responses,
            )
        )
    return results, truths


class TestTruthDiscoveryEM:
    def test_recovers_labels_with_reliable_panel(self, rng):
        results, truths = synthetic_results(rng, 60, [0.9, 0.85, 0.8, 0.75, 0.9])
        labels = TruthDiscoveryEM().truthful_labels(results)
        assert np.mean(labels == truths) >= 0.9

    def test_estimates_worker_reliability_ordering(self, rng):
        reliabilities = [0.95, 0.6, 0.95, 0.95, 0.95]
        results, _ = synthetic_results(rng, 120, reliabilities)
        _, estimated = TruthDiscoveryEM().fit(results)
        # The weak worker must receive the lowest estimated reliability.
        assert min(estimated, key=estimated.get) == 1

    def test_beats_voting_with_one_dominant_expert(self, rng):
        # One excellent worker among four mediocre ones: EM learns to trust
        # the expert where plain voting cannot.  (Workers at chance level
        # would be unidentifiable for the one-coin model, so the mediocre
        # ones sit at 0.5 — clearly above the 1/3 chance floor.)
        reliabilities = [0.95, 0.5, 0.5, 0.5, 0.5]
        results, truths = synthetic_results(rng, 150, reliabilities)
        from repro.truth.voting import MajorityVote

        em_acc = np.mean(TruthDiscoveryEM().truthful_labels(results) == truths)
        vote_acc = np.mean(MajorityVote().truthful_labels(results) == truths)
        assert em_acc > vote_acc

    def test_posteriors_are_distributions(self, rng):
        results, _ = synthetic_results(rng, 20, [0.8, 0.8, 0.8])
        posteriors, _ = TruthDiscoveryEM().fit(results)
        assert posteriors.shape == (20, 3)
        np.testing.assert_allclose(posteriors.sum(axis=1), 1.0)

    def test_convergence_is_deterministic(self, rng):
        results, _ = synthetic_results(rng, 30, [0.8, 0.7, 0.9])
        a = TruthDiscoveryEM().truthful_labels(results)
        b = TruthDiscoveryEM().truthful_labels(results)
        np.testing.assert_array_equal(a, b)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            TruthDiscoveryEM().truthful_labels([])

    def test_query_without_responses_raises(self):
        empty = QueryResult(query=CrowdQuery(0, 0, 1.0, TemporalContext.MORNING))
        with pytest.raises(ValueError):
            TruthDiscoveryEM().truthful_labels([empty])
