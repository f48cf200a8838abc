"""Tests for repro.core.cqc — crowd quality control."""

import pickle

import numpy as np
import pytest

from repro.core.cqc import CrowdQualityControl
from repro.truth.voting import MajorityVote
from repro.utils.clock import TemporalContext


@pytest.fixture(scope="module")
def labeled_queries(population):
    """Crowd responses on a mixed dataset with golden labels."""
    from repro.crowd.delay import DelayModel
    from repro.crowd.platform import CrowdsourcingPlatform
    from repro.crowd.quality import QualityModel
    from repro.data.dataset import build_dataset

    rng = np.random.default_rng(31)
    platform = CrowdsourcingPlatform(
        population=population,
        delay_model=DelayModel(),
        quality_model=QualityModel(),
        rng=rng,
        workers_per_query=5,
    )
    dataset = build_dataset(n_images=240, archetype_fraction=0.3, rng=rng)
    results = []
    labels = []
    for image in dataset:
        results.append(
            platform.post_query(image.metadata, 8.0, TemporalContext.EVENING)
        )
        labels.append(int(image.true_label))
    labels = np.array(labels)
    split = 160
    return (
        results[:split],
        labels[:split],
        results[split:],
        labels[split:],
    )


class TestCrowdQualityControl:
    def test_fit_predict_roundtrip(self, labeled_queries, rng):
        train_results, train_labels, test_results, test_labels = labeled_queries
        cqc = CrowdQualityControl().fit(train_results, train_labels, rng=rng)
        predicted = cqc.truthful_labels(test_results)
        assert predicted.shape == test_labels.shape
        assert np.mean(predicted == test_labels) > 0.8

    def test_beats_majority_voting(self, labeled_queries, rng):
        """The paper's Table I claim: CQC > voting on archetype-rich data."""
        train_results, train_labels, test_results, test_labels = labeled_queries
        cqc = CrowdQualityControl().fit(train_results, train_labels, rng=rng)
        cqc_acc = np.mean(cqc.truthful_labels(test_results) == test_labels)
        vote_acc = np.mean(MajorityVote().truthful_labels(test_results) == test_labels)
        assert cqc_acc > vote_acc

    def test_questionnaire_ablation_hurts(self, labeled_queries, rng):
        """The evidence channel is where CQC's advantage comes from."""
        train_results, train_labels, test_results, test_labels = labeled_queries
        full = CrowdQualityControl(use_questionnaire=True).fit(
            train_results, train_labels, rng=np.random.default_rng(1)
        )
        ablated = CrowdQualityControl(use_questionnaire=False).fit(
            train_results, train_labels, rng=np.random.default_rng(1)
        )
        full_acc = np.mean(full.truthful_labels(test_results) == test_labels)
        ablated_acc = np.mean(ablated.truthful_labels(test_results) == test_labels)
        assert full_acc >= ablated_acc

    def test_label_distributions_normalized(self, labeled_queries, rng):
        train_results, train_labels, test_results, _ = labeled_queries
        cqc = CrowdQualityControl().fit(train_results, train_labels, rng=rng)
        dists = cqc.label_distributions(test_results)
        np.testing.assert_allclose(dists.sum(axis=1), 1.0)

    def test_distributions_argmax_matches_labels(self, labeled_queries, rng):
        train_results, train_labels, test_results, _ = labeled_queries
        cqc = CrowdQualityControl().fit(train_results, train_labels, rng=rng)
        labels = cqc.truthful_labels(test_results)
        dists = cqc.label_distributions(test_results)
        np.testing.assert_array_equal(labels, np.argmax(dists, axis=1))

    def test_unfitted_raises(self, labeled_queries):
        _, _, test_results, _ = labeled_queries
        cqc = CrowdQualityControl()
        assert not cqc.is_fitted
        with pytest.raises(RuntimeError):
            cqc.truthful_labels(test_results)
        with pytest.raises(RuntimeError):
            cqc.label_distributions(test_results)

    def test_misaligned_labels_raise(self, labeled_queries, rng):
        train_results, _, _, _ = labeled_queries
        with pytest.raises(ValueError):
            CrowdQualityControl().fit(train_results, np.array([0, 1]), rng=rng)

    def test_empty_results_raise(self, rng):
        with pytest.raises(ValueError):
            CrowdQualityControl().fit([], np.array([]), rng=rng)

    def test_pickle_round_trip_predicts_identically(self, labeled_queries, rng):
        train_results, train_labels, test_results, _ = labeled_queries
        cqc = CrowdQualityControl().fit(train_results, train_labels, rng=rng)
        dists = cqc.label_distributions(test_results)
        payload = pickle.dumps(cqc)
        # The compiled tree arrays are derived state and never pickled.
        assert b"_flat" not in payload
        restored = pickle.loads(payload)
        np.testing.assert_array_equal(
            restored.label_distributions(test_results), dists
        )
        np.testing.assert_array_equal(
            restored.truthful_labels(test_results),
            cqc.truthful_labels(test_results),
        )


class TestPilotMissingClass:
    """Regression: a pilot without the top damage class still fits CQC.

    The class count used to come from the largest pilot label, so a
    two-class pilot gave ``(n, 2)`` distributions that MIC refused to
    align with the committee's three-class votes.
    """

    def test_two_class_pilot_runs_a_cycle(self):
        from repro.eval.runner import build_crowdlearn, prepare

        setup = prepare(seed=3, fast=True)
        system = build_crowdlearn(setup)
        results, labels = setup.pilot.all_labeled_results()
        keep = [i for i, label in enumerate(labels) if label in (0, 1)]
        system.cqc.fit(
            [results[i] for i in keep],
            np.array(labels)[keep],
            rng=np.random.default_rng(0),
        )
        assert system.cqc.label_distributions(results[:2]).shape == (2, 3)
        cycle = next(iter(setup.make_stream("two-class-pilot")))
        outcome = system.run_cycle(cycle)
        assert outcome.query_indices.size > 0
        assert outcome.final_scores.shape == (len(outcome.true_labels), 3)
        np.testing.assert_allclose(outcome.final_scores.sum(axis=1), 1.0)
