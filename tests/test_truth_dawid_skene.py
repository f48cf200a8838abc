"""Tests for repro.truth.dawid_skene (confusion-matrix truth discovery)."""

import numpy as np
import pytest

from repro.crowd.tasks import (
    CrowdQuery,
    QueryResult,
    QuestionnaireAnswers,
    WorkerResponse,
)
from repro.data.metadata import DamageLabel, SceneType
from repro.truth.dawid_skene import DawidSkene
from repro.utils.clock import TemporalContext


def results_from_confusions(rng, n_queries, confusions, n_classes=3):
    """Queries answered by workers with known confusion matrices."""
    truths = rng.integers(0, n_classes, size=n_queries)
    results = []
    for q in range(n_queries):
        responses = []
        for worker_id, confusion in enumerate(confusions):
            label = int(rng.choice(n_classes, p=confusion[truths[q]]))
            responses.append(
                WorkerResponse(
                    worker_id=worker_id,
                    label=DamageLabel(label),
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


def reliable(p=0.9, k=3):
    return np.eye(k) * p + np.full((k, k), (1 - p) / (k - 1)) * (1 - np.eye(k))


def escalator(k=3):
    """A worker who systematically reports moderate damage as severe."""
    confusion = reliable(0.9, k)
    confusion[1] = [0.05, 0.15, 0.80]
    return confusion


class TestDawidSkene:
    def test_recovers_labels(self, rng):
        confusions = [reliable(0.9) for _ in range(5)]
        results, truths = results_from_confusions(rng, 80, confusions)
        labels = DawidSkene().truthful_labels(results)
        assert np.mean(labels == truths) > 0.9

    def test_learns_systematic_bias(self, rng):
        confusions = [reliable(0.95), reliable(0.95), escalator()]
        results, truths = results_from_confusions(rng, 200, confusions)
        _, matrices = DawidSkene().fit(results)
        # The escalator's estimated matrix must show moderate -> severe mass.
        assert matrices[2][1, 2] > matrices[0][1, 2] + 0.2

    def test_beats_one_coin_model_under_bias(self, rng):
        """Three escalators overwhelm voting and one-coin EM on moderates;
        the confusion-matrix model can undo the systematic shift."""
        confusions = [reliable(0.95), escalator(), escalator(), escalator()]
        results, truths = results_from_confusions(rng, 300, confusions)
        from repro.truth.tdem import TruthDiscoveryEM

        moderates = truths == 1
        if not moderates.any():
            pytest.skip("no moderate samples drawn")
        ds_labels = DawidSkene().truthful_labels(results)
        em_labels = TruthDiscoveryEM().truthful_labels(results)
        ds_acc = np.mean(ds_labels[moderates] == 1)
        em_acc = np.mean(em_labels[moderates] == 1)
        assert ds_acc >= em_acc

    def test_posteriors_are_distributions(self, rng):
        confusions = [reliable(0.8) for _ in range(3)]
        results, _ = results_from_confusions(rng, 30, confusions)
        posteriors, matrices = DawidSkene().fit(results)
        np.testing.assert_allclose(posteriors.sum(axis=1), 1.0)
        for matrix in matrices.values():
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_deterministic(self, rng):
        confusions = [reliable(0.85) for _ in range(3)]
        results, _ = results_from_confusions(rng, 40, confusions)
        a = DawidSkene().truthful_labels(results)
        b = DawidSkene().truthful_labels(results)
        np.testing.assert_array_equal(a, b)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            DawidSkene().truthful_labels([])

    def test_works_on_real_platform_output(self, platform, small_dataset):
        results = [
            platform.post_query(img.metadata, 8.0, TemporalContext.EVENING)
            for img in small_dataset.images[:25]
        ]
        labels = DawidSkene().truthful_labels(results)
        assert labels.shape == (25,)
        assert set(labels.tolist()) <= {0, 1, 2}
