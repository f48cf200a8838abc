"""Tests for repro.crowd.population."""

import pickle

import numpy as np
import pytest

from repro.crowd.delay import DelayModel
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.population import WorkerPopulation
from repro.crowd.quality import QualityModel
from repro.crowd.worker import Worker
from repro.data.dataset import build_dataset
from repro.utils.clock import TemporalContext


class TestWorkerPopulation:
    def test_size(self, population):
        assert len(population) == 40

    def test_mean_reliability_near_point_eight(self):
        pop = WorkerPopulation(n_workers=500, rng=np.random.default_rng(0))
        assert pop.mean_reliability() == pytest.approx(0.8, abs=0.03)

    def test_workers_have_valid_attributes(self, population):
        for worker in population.workers:
            assert 0.0 <= worker.reliability <= 1.0
            assert 0.0 <= worker.insight <= 1.0
            assert worker.speed > 0
            for context in TemporalContext:
                assert worker.activity[context] >= 0

    def test_indexing(self, population):
        assert population[3].worker_id == 3

    def test_sample_workers_distinct(self, population, rng):
        workers = population.sample_workers(10, TemporalContext.EVENING, rng)
        ids = [w.worker_id for w in workers]
        assert len(set(ids)) == 10

    def test_sample_respects_bounds(self, population, rng):
        with pytest.raises(ValueError):
            population.sample_workers(0, TemporalContext.EVENING, rng)
        with pytest.raises(ValueError):
            population.sample_workers(41, TemporalContext.EVENING, rng)

    def test_evening_activity_higher_on_average(self):
        pop = WorkerPopulation(n_workers=300, rng=np.random.default_rng(1))
        evening = np.mean(
            [w.activity[TemporalContext.EVENING] for w in pop.workers]
        )
        morning = np.mean(
            [w.activity[TemporalContext.MORNING] for w in pop.workers]
        )
        assert evening > morning

    def test_active_workers_sampled_more(self):
        pop = WorkerPopulation(n_workers=30, rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        counts = np.zeros(30)
        for _ in range(400):
            for w in pop.sample_workers(5, TemporalContext.MORNING, rng):
                counts[w.worker_id] += 1
        activities = np.array(
            [w.activity[TemporalContext.MORNING] for w in pop.workers]
        )
        # Rank correlation between activity and sample frequency.
        corr = np.corrcoef(activities, counts)[0, 1]
        assert corr > 0.5

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            WorkerPopulation(n_workers=0)

    def test_deterministic_given_seed(self):
        a = WorkerPopulation(10, np.random.default_rng(7))
        b = WorkerPopulation(10, np.random.default_rng(7))
        for wa, wb in zip(a.workers, b.workers):
            assert wa.reliability == wb.reliability
            assert wa.speed == wb.speed


class PerDrawPopulation(WorkerPopulation):
    """Recomputes the availability probabilities on every draw."""

    def sample_workers(self, k, context, rng):
        weights = np.array([w.activity[context] for w in self.workers])
        probs = weights / weights.sum()
        chosen = rng.choice(len(self.workers), size=k, replace=False, p=probs)
        return [self.workers[int(i)] for i in chosen]


class TestAvailabilityProbabilities:
    """The per-context probabilities are computed once and stay derived."""

    def test_twin_platforms_draw_and_answer_alike(self):
        population = WorkerPopulation(n_workers=50, rng=np.random.default_rng(4))
        twin = PerDrawPopulation.__new__(PerDrawPopulation)
        twin.workers = population.workers
        dataset = build_dataset(n_images=20, rng=np.random.default_rng(5))

        def post_all(pop):
            platform = CrowdsourcingPlatform(
                population=pop,
                delay_model=DelayModel(),
                quality_model=QualityModel(),
                rng=np.random.default_rng(6),
            )
            out = []
            for i, context in enumerate(list(TemporalContext) * 10):
                result = platform.post_query(dataset[i % 20].metadata, 5.0, context)
                out.append(
                    [(r.worker_id, int(r.label), r.delay_seconds) for r in result.responses]
                )
            return out, platform.rng.bit_generator.state

        assert post_all(population) == post_all(twin)
        assert set(population._probs) == set(TemporalContext)

    def test_assigning_workers_resets_them(self, rng):
        population = WorkerPopulation(n_workers=10, rng=np.random.default_rng(1))
        population.sample_workers(3, TemporalContext.MORNING, rng)
        population.workers = [
            Worker(
                worker_id=i,
                reliability=0.8,
                insight=0.5,
                speed=1.0,
                activity={c: float(i == 2) for c in TemporalContext},
            )
            for i in range(4)
        ]
        assert population._probs == {}
        (only,) = population.sample_workers(1, TemporalContext.MORNING, rng)
        assert only.worker_id == 2

    def test_pickles_leave_them_out(self, rng):
        population = WorkerPopulation(n_workers=12, rng=np.random.default_rng(2))
        fresh = pickle.dumps(population)
        for context in TemporalContext:
            population.sample_workers(4, context, rng)
        assert pickle.dumps(population) == fresh
        restored = pickle.loads(fresh)
        assert restored._probs == {}
        a = restored.sample_workers(4, TemporalContext.EVENING, np.random.default_rng(3))
        b = population.sample_workers(4, TemporalContext.EVENING, np.random.default_rng(3))
        assert [w.worker_id for w in a] == [w.worker_id for w in b]
