"""The one aggregator interface: every Table I method answers the same calls.

Voting, Filtering, TD-EM, Dawid-Skene and CQC each turn a batch of crowd
responses into an ``(n, k)`` label distribution and an ``(n,)`` label.
The contract is checked on real platform output of the fast world, and the
shared input validation on hand-built responses.
"""

import numpy as np
import pytest

from repro.core.cqc import CrowdQualityControl
from repro.data.metadata import DamageLabel
from repro.eval.runner import prepare
from repro.truth import (
    Aggregator,
    DawidSkene,
    MajorityVote,
    QualityFilter,
    TruthDiscoveryEM,
)
from repro.utils.clock import TemporalContext

from tests.test_truth_voting import result_of

AGGREGATORS = ("Voting", "Filtering", "TD-EM", "Dawid-Skene", "CQC")


@pytest.fixture(scope="module", params=[0, 1], ids=["seed0", "seed1"])
def world(request):
    """A fast world's platform, with graded histories and 40 test queries."""
    setup = prepare(seed=request.param, fast=True)
    platform = setup.make_platform("aggregator-contract")
    contexts = TemporalContext.ordered()
    results = []
    for i, image in enumerate(setup.test_set.images[:40]):
        result = platform.post_query(image.metadata, 6.0, contexts[i % 4])
        if i < 20:  # graded, so Filtering has track records to judge by
            platform.reveal_ground_truth(
                result.query.query_id, int(image.true_label)
            )
        results.append(result)
    return setup, platform, results


def make_aggregator(name, setup, platform) -> Aggregator:
    if name == "CQC":
        pilot_results, pilot_labels = setup.pilot.all_labeled_results()
        return CrowdQualityControl().fit(
            pilot_results, np.array(pilot_labels), rng=np.random.default_rng(0)
        )
    if name == "Filtering":
        return QualityFilter(platform=platform)
    return {
        "Voting": MajorityVote, "TD-EM": TruthDiscoveryEM, "Dawid-Skene": DawidSkene
    }[name]()


@pytest.mark.parametrize("name", AGGREGATORS)
def test_contract(name, world):
    setup, platform, results = world
    aggregator = make_aggregator(name, setup, platform)
    assert isinstance(aggregator, Aggregator)
    dists = aggregator.label_distributions(results)
    assert dists.shape == (len(results), DamageLabel.count())
    assert (dists >= 0).all()
    np.testing.assert_allclose(dists.sum(axis=1), 1.0)
    labels = aggregator.truthful_labels(results)
    assert labels.shape == (len(results),)
    np.testing.assert_array_equal(labels, np.argmax(dists, axis=1))


class TestLabelsOutsideClasses:
    """A label the caller's ``n_classes`` says does not exist is an error."""

    @pytest.mark.parametrize(
        "aggregator",
        [
            MajorityVote(n_classes=2),
            TruthDiscoveryEM(n_classes=2),
            DawidSkene(n_classes=2),
        ],
        ids=["Voting", "TD-EM", "Dawid-Skene"],
    )
    def test_label_beyond_n_classes_raises(self, aggregator):
        results = [
            result_of([DamageLabel.SEVERE] * 3),
            result_of([DamageLabel.NO_DAMAGE] * 3),
        ]
        with pytest.raises(ValueError, match=r"label 2 .*n_classes=2"):
            aggregator.label_distributions(results)
        with pytest.raises(ValueError, match=r"label 2 .*n_classes=2"):
            aggregator.truthful_labels(results)


class TestEMSettings:
    @pytest.mark.parametrize("cls", [TruthDiscoveryEM, DawidSkene])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_classes": 1},
            {"max_iter": 0},
            {"tol": -1e-6},
            {"smoothing": -0.5},
        ],
        ids=["n_classes", "max_iter", "tol", "smoothing"],
    )
    def test_invalid_setting_rejected(self, cls, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            cls(**kwargs)

    @pytest.mark.parametrize("cls", [TruthDiscoveryEM, DawidSkene])
    def test_boundary_settings_accepted(self, cls):
        cls(n_classes=2, max_iter=1, tol=0.0, smoothing=0.0)
