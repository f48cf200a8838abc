"""Tests for repro.core.cache — the bounded feature store, the guard's
holdout-score memo behind the ``prediction_*`` counters, and the counters
view."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.cache import BoundedCache, MemoCounters, feature_stores
from repro.core.guards import GuardPolicy, ModelGuard
from repro.data.dataset import build_dataset
from repro.models.base import next_model_version


class _FakeExpert:
    """A predict-counting stand-in for a committee expert."""

    def __init__(self, name: str = "fake") -> None:
        self.name = name
        self.model_version = next_model_version()
        self.calls = 0

    def predict(self, dataset) -> np.ndarray:
        self.calls += 1
        return dataset.labels()


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(n_images=12, rng=np.random.default_rng(0))


def _guard(holdout, n_experts: int = 1) -> ModelGuard:
    return ModelGuard(GuardPolicy(), holdout, n_experts)


class TestBoundedCache:
    def test_get_put_roundtrip(self):
        cache = BoundedCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert cache.get("missing") is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedCache(0)

    def test_lru_eviction_order(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_size_never_exceeds_capacity(self):
        cache = BoundedCache(8)
        for i in range(100):
            cache.put(i, i)
            assert len(cache) <= 8
        assert cache.stats.evictions == 92

    def test_stats_track_hits_and_misses(self):
        cache = BoundedCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_pickle_drops_entries(self):
        cache = BoundedCache(4)
        cache.put("a", np.arange(3))
        cache.get("a")
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 0
        assert clone.capacity == 4
        assert clone.stats.hits == 0  # a copy is a new, empty store
        # The original is untouched; the clone works as a fresh store.
        assert cache.get("a") is not None
        clone.put("b", 2)
        assert clone.get("b") == 2


class TestPredictionCache:
    """The ``prediction_*`` counters: the guard's holdout-score memo."""

    def test_miss_computes_then_hit_serves(self, dataset):
        guard = _guard(dataset)
        expert = _FakeExpert()
        first = guard.holdout_accuracy(expert)
        second = guard.holdout_accuracy(expert)
        assert expert.calls == 1
        assert first == second == 1.0
        assert guard.score_stats.hits == 1
        assert guard.score_stats.misses == 1

    def test_version_bump_misses(self, dataset):
        guard = _guard(dataset)
        expert = _FakeExpert()
        guard.holdout_accuracy(expert)
        expert.model_version = next_model_version(expert.model_version)
        guard.holdout_accuracy(expert)
        assert expert.calls == 2

    def test_stale_versions_dropped_on_miss(self, dataset):
        guard = _guard(dataset)
        expert = _FakeExpert()
        guard.holdout_accuracy(expert)
        expert.model_version = next_model_version(expert.model_version)
        guard.holdout_accuracy(expert)
        # One entry per expert: the new version replaced the old one.
        assert len(guard._scores) == 1
        assert guard.score_stats.invalidations == 1

    def test_invalidate_expert_is_per_expert(self, dataset):
        guard = _guard(dataset, n_experts=2)
        a, b = _FakeExpert("a"), _FakeExpert("b")
        guard.holdout_accuracy(a)
        guard.holdout_accuracy(b)
        a.model_version = next_model_version(a.model_version)
        guard.holdout_accuracy(a)
        guard.holdout_accuracy(b)
        assert a.calls == 2
        assert b.calls == 1

    def test_counters_exposed_flat(self, dataset):
        guard = _guard(dataset)
        guard.holdout_accuracy(_FakeExpert())
        store = BoundedCache(4)
        store.get("missing")
        stats = MemoCounters([guard.score_stats], [store]).stats()
        for field in ("hits", "misses", "evictions", "invalidations"):
            assert f"prediction_{field}" in stats
            assert f"feature_{field}" in stats
        assert stats["prediction_misses"] == 1
        assert stats["feature_misses"] == 1


class TestFeatureStores:
    def test_distinct_stores_in_member_order(self):
        class _Holder:
            def __init__(self, store):
                self.feature_store = store

        one, two = BoundedCache(2), BoundedCache(2)
        experts = [_Holder(one), _FakeExpert(), _Holder(two), _Holder(one)]
        assert feature_stores(experts) == [one, two]

    def test_counters_sum_over_parts(self, dataset):
        guards = [_guard(dataset), _guard(dataset)]
        for guard in guards:
            guard.holdout_accuracy(_FakeExpert())
        stats = MemoCounters([g.score_stats for g in guards], []).stats()
        assert stats["prediction_misses"] == 2
        assert stats["feature_misses"] == 0
