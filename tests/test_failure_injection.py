"""Failure injection: the system must degrade gracefully, never crash.

Hostile conditions exercised here: a crowd of coin-flipping workers, a
single worker per query, starvation budgets, empty query sets, and experts
that error out mid-committee.
"""

import numpy as np
import pytest

from repro.bandit.budget import BudgetLedger
from repro.core.cqc import CrowdQualityControl
from repro.crowd.delay import DelayModel
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.population import WorkerPopulation
from repro.crowd.quality import QualityModel
from repro.crowd.worker import Worker
from repro.truth.tdem import TruthDiscoveryEM
from repro.truth.voting import MajorityVote
from repro.utils.clock import TemporalContext


def hostile_population(n=20):
    """Workers with chance-level reliability and zero insight."""
    population = WorkerPopulation.__new__(WorkerPopulation)
    population.workers = [
        Worker(
            worker_id=i,
            reliability=0.34,
            insight=0.0,
            speed=1.0,
            activity={c: 1.0 for c in TemporalContext},
        )
        for i in range(n)
    ]
    return population


def make_platform(population, rng, workers_per_query=5):
    return CrowdsourcingPlatform(
        population=population,
        delay_model=DelayModel(),
        quality_model=QualityModel(),
        rng=rng,
        workers_per_query=workers_per_query,
    )


class TestHostileCrowd:
    def test_aggregators_survive_chance_workers(self, small_dataset, rng):
        platform = make_platform(hostile_population(), rng)
        results = []
        truths = []
        for image in small_dataset.images[:30]:
            results.append(
                platform.post_query(image.metadata, 8.0, TemporalContext.EVENING)
            )
            truths.append(int(image.true_label))
        truths = np.array(truths)
        voted = MajorityVote().truthful_labels(results)
        em = TruthDiscoveryEM().truthful_labels(results)
        # No crash, valid labels; accuracy unconstrained (workers are noise).
        assert set(voted.tolist()) <= {0, 1, 2}
        assert set(em.tolist()) <= {0, 1, 2}

    def test_cqc_trained_on_noise_still_predicts(self, small_dataset, rng):
        platform = make_platform(hostile_population(), rng)
        results = []
        truths = []
        for image in small_dataset.images[:40]:
            results.append(
                platform.post_query(image.metadata, 8.0, TemporalContext.MORNING)
            )
            truths.append(int(image.true_label))
        cqc = CrowdQualityControl().fit(results, np.array(truths), rng=rng)
        predictions = cqc.truthful_labels(results)
        assert predictions.shape == (40,)


class TestSingleWorkerQueries:
    def test_voting_with_one_worker(self, population, rng):
        platform = make_platform(population, rng, workers_per_query=1)
        image = None
        from repro.data.dataset import build_dataset

        dataset = build_dataset(n_images=10, rng=rng)
        results = [
            platform.post_query(img.metadata, 8.0, TemporalContext.EVENING)
            for img in dataset
        ]
        labels = MajorityVote().truthful_labels(results)
        assert labels.shape == (10,)
        del image

    def test_tdem_with_one_worker_per_query(self, population, rng):
        from repro.data.dataset import build_dataset

        platform = make_platform(population, rng, workers_per_query=1)
        dataset = build_dataset(n_images=15, rng=rng)
        results = [
            platform.post_query(img.metadata, 8.0, TemporalContext.EVENING)
            for img in dataset
        ]
        labels = TruthDiscoveryEM().truthful_labels(results)
        assert labels.shape == (15,)


class TestStarvationBudget:
    def test_ledger_never_goes_negative(self, population, rng):
        from repro.data.dataset import build_dataset
        from repro.bandit.budget import BudgetExhausted

        platform = make_platform(population, rng)
        ledger = BudgetLedger(5.0)
        dataset = build_dataset(n_images=10, rng=rng)
        posted = 0
        for image in dataset:
            try:
                platform.post_query(
                    image.metadata, 2.0, TemporalContext.EVENING, ledger=ledger
                )
                posted += 1
            except BudgetExhausted:
                break
        assert posted == 2
        assert ledger.remaining >= 0


class TestBrokenExpert:
    def test_committee_propagates_expert_errors(self, small_dataset, rng):
        from repro.core.committee import Committee
        from repro.models.base import DDAModel

        class BrokenExpert(DDAModel):
            name = "broken"

            def fit(self, dataset, rng):
                return self

            def predict_proba(self, dataset):
                raise RuntimeError("expert exploded")

            def retrain(self, dataset, labels, rng):
                return self

        committee = Committee([BrokenExpert()])
        with pytest.raises(RuntimeError, match="exploded"):
            committee.expert_votes(small_dataset)


class TestDegenerateConfig:
    def test_one_image_per_cycle(self, rng):
        from repro.core.config import CrowdLearnConfig
        from repro.eval.runner import build_crowdlearn, prepare

        config = CrowdLearnConfig(
            n_cycles=4,
            images_per_cycle=1,
            cycles_per_context=1,
            query_fraction=1.0,
            budget_usd=1.0,
            pilot_queries_per_cell=2,
            n_workers=10,
            mic_replay_size=2,
        )
        setup = prepare(seed=2, config=config, n_images=60, n_train=40)
        system = build_crowdlearn(setup)
        outcome = system.run(setup.make_stream("degenerate"))
        assert outcome.y_pred().shape == (4,)
