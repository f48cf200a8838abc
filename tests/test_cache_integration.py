"""Integration tests for the shared prediction cache in the closed loop.

The cache's contract is *invisible speed*: a cached deployment must be
bit-identical to an uncached one while computing each expert's votes once
per (model version, pool) instead of once per call site, and no stale
array may survive a retrain, a guard rollback, or an expert swap-in.
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core.cache import PredictionCache, pool_key
from repro.core.committee import Committee
from repro.core.guards import GuardCounters, GuardPolicy, ModelGuard
from repro.data.dataset import build_dataset
from repro.eval.runner import build_crowdlearn, prepare
from repro.models.base import next_model_version
from repro.models.bovw_model import BoVWModel


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=7, fast=True)


def _detach_cache(system) -> None:
    """Make ``system`` the uncached reference arm: every vote and holdout
    score is computed directly."""
    system.committee.attach_cache(None)
    system.guards.cache = None
    system.cache = None


def _run(setup, cached: bool, name: str):
    system = build_crowdlearn(setup, platform_name=name)
    if not cached:
        _detach_cache(system)
    return system, system.run(setup.make_stream(name))


class TestDigestParity:
    def test_cached_run_bit_identical_to_uncached(self, setup):
        """Caching must never change a single bit of the loop's outputs."""
        cached_system, cached = _run(setup, True, "cache-parity")
        uncached_system, uncached = _run(setup, False, "cache-parity")
        assert uncached_system.cache is None
        assert len(cached.cycles) == len(uncached.cycles)
        for ca, cb in zip(cached.cycles, uncached.cycles):
            np.testing.assert_array_equal(ca.true_labels, cb.true_labels)
            np.testing.assert_array_equal(ca.final_labels, cb.final_labels)
            np.testing.assert_array_equal(ca.final_scores, cb.final_scores)
            np.testing.assert_array_equal(ca.query_indices, cb.query_indices)
            np.testing.assert_array_equal(ca.expert_weights, cb.expert_weights)
            np.testing.assert_array_equal(
                ca.incentives_cents, cb.incentives_cents
            )
            assert ca.cost_cents == cb.cost_cents
        # ...and the parity is not vacuous: the cache did serve votes.
        stats = cached_system.cache.stats()
        assert stats["prediction_hits"] > 0, stats

    def test_checkpoint_drops_entries_but_keeps_wiring(self, setup):
        """Pickled systems carry the cache, not its (process-bound) arrays."""
        system, _ = _run(setup, True, "cache-pickle")
        assert len(system.cache.predictions) > 0
        clone = pickle.loads(pickle.dumps(system))
        assert clone.cache is not None
        assert len(clone.cache.predictions) == 0
        assert len(clone.cache.features) == 0
        # The committee and its BoVW member still point at the one store.
        assert clone.committee.cache is clone.cache
        for expert in clone.committee.experts:
            if isinstance(expert, BoVWModel):
                assert expert._feature_cache is clone.cache.features


class TestComputeOncePerVersion:
    def test_votes_computed_once_per_pool_and_version(self, setup, monkeypatch):
        """Cached: one compute per (expert, version, pool); uncached: >= 3.

        The redundancy lives in guard holdout scoring (quarantine check,
        incumbent scoring, re-admission probes all hit the same pool at an
        unchanged version), so guards stay at their defaults here.
        ``predict_proba`` is counted at class level (instance-level
        wrappers would change what guard snapshots pickle).
        """
        calls: Counter = Counter()
        classes = {type(e) for e in setup.base_committee.experts}
        for cls in classes:
            original = cls.predict_proba

            def counted(self, dataset, _original=original):
                calls[(self.name, self.model_version, pool_key(dataset))] += 1
                return _original(self, dataset)

            monkeypatch.setattr(cls, "predict_proba", counted)

        _run(setup, True, "cache-counts")
        cached_calls = dict(calls)
        assert cached_calls, "counting wrapper never fired"
        assert max(cached_calls.values()) == 1, {
            k: v for k, v in cached_calls.items() if v > 1
        }

        calls.clear()
        _run(setup, False, "cache-counts")
        uncached_calls = dict(calls)
        # The same loop recomputes holdout votes at >= 3 call sites.
        assert max(uncached_calls.values()) >= 3
        assert sum(uncached_calls.values()) > sum(cached_calls.values())


class _VersionedExpert:
    """Pickle-able expert whose votes and version change on 'retraining'."""

    def __init__(self, name: str, n_correct: int, n_classes: int = 3) -> None:
        self.name = name
        self.n_correct = n_correct
        self.n_classes = n_classes
        self.model_version = next_model_version()
        self.calls = 0

    def corrupt(self, n_correct: int) -> None:
        """What a bad retrain does: new behavior, new version."""
        self.n_correct = n_correct
        self.bump_version()

    def bump_version(self) -> None:
        self.model_version = next_model_version(self.model_version)

    def predict(self, dataset) -> np.ndarray:
        return np.argmax(self.predict_proba(dataset), axis=1)

    def predict_proba(self, dataset) -> np.ndarray:
        self.calls += 1
        truth = dataset.labels()
        predicted = truth.copy()
        predicted[self.n_correct:] = (
            truth[self.n_correct:] + 1
        ) % self.n_classes
        return np.eye(self.n_classes)[predicted]

    def attach_cache(self, cache) -> None:
        return None

    def fit(self, dataset, rng):
        return self

    def retrain(self, dataset, labels, rng):
        self.corrupt(self.n_correct)
        return self


class _CorruptingMIC:
    def __init__(self, damage: dict) -> None:
        self.damage = damage

    def retrain_experts(self, committee, query_images, truthful, pool, rng):
        for m, n_correct in self.damage.items():
            committee.experts[m].corrupt(n_correct)


class _StubCommittee:
    def __init__(self, experts):
        self.experts = experts


@pytest.fixture()
def holdout():
    return build_dataset(n_images=10, rng=np.random.default_rng(3))


class TestRollbackInvalidation:
    def test_restored_snapshot_never_serves_candidate_votes(self, holdout):
        """After a rollback the cache must vote like the restored expert.

        The candidate's arrays were stored under its own (newer) version;
        the rollback must drop them and re-serve the snapshot's behavior
        even though the snapshot was pickled (entry-free) and restored.
        """
        policy = GuardPolicy(regression_tolerance=0.25)
        guard = ModelGuard(policy, holdout, 2)
        cache = PredictionCache()
        guard.cache = cache
        committee = _StubCommittee(
            [_VersionedExpert("a", 8), _VersionedExpert("b", 9)]
        )
        incumbent_votes = cache.predict_proba(committee.experts[0], holdout)
        counters = GuardCounters()
        guard.guarded_retrain(
            _CorruptingMIC({0: 2}),  # 0.8 -> 0.2, far past the tolerance
            committee,
            [],
            np.empty(0, dtype=np.int64),
            holdout,
            np.random.default_rng(0),
            counters,
        )
        assert counters.rollbacks == 1
        restored = committee.experts[0]
        assert restored.n_correct == 8
        # No entry for "a" at any version other than the restored one.
        for _ns, name, version, _pool in cache.predictions.keys():
            if name == "a":
                assert version == restored.model_version
        served = cache.predict_proba(restored, holdout)
        np.testing.assert_array_equal(served, incumbent_votes)
        # The untouched expert kept its version and its cache entries.
        assert committee.experts[1].name == "b"

    def test_swapped_in_expert_is_not_served_predecessor_votes(self, holdout):
        """Replacing a committee member must not leak the old one's votes."""
        cache = PredictionCache()
        committee = Committee([_VersionedExpert("a", 2)])
        committee.attach_cache(cache)
        before = committee.expert_votes(holdout)[0]
        replacement = _VersionedExpert("a", 9)  # same name, fresh version
        committee.experts[0] = replacement
        after = committee.expert_votes(holdout)[0]
        assert replacement.calls == 1  # computed, not served stale
        assert not np.array_equal(before, after)


class TestRetrainInvalidation:
    def test_retrain_without_version_bump_is_bumped_and_dropped(self, holdout):
        """Legacy experts that forget to bump still cannot serve stale votes."""

        class _Forgetful(_VersionedExpert):
            def retrain(self, dataset, labels, rng):
                self.n_correct = 1  # changed behavior, same version
                return self

        cache = PredictionCache()
        expert = _Forgetful("f", 9)
        committee = Committee([expert])
        committee.attach_cache(cache)
        committee.expert_votes(holdout)
        version_before = expert.model_version
        committee.retrain(holdout, holdout.labels(), np.random.default_rng(0))
        assert expert.model_version > version_before  # committee bumped it
        votes = committee.expert_votes(holdout)[0]
        np.testing.assert_array_equal(
            np.argmax(votes, axis=1)[1:], (holdout.labels()[1:] + 1) % 3
        )


class TestBoundedFeatureStore:
    def test_feature_cache_never_exceeds_bound(self, small_dataset, rng):
        """The BoVW feature memo is LRU-bounded, not append-only."""
        bound = 16
        model = BoVWModel(
            vocabulary_size=8,
            hidden=4,
            epochs=1,
            include_global=False,
            feature_cache_size=bound,
        )
        train = small_dataset.subset(list(range(40)))
        model.fit(train, rng)
        assert len(model._feature_cache) <= bound
        for _ in range(3):
            model.predict_proba(small_dataset)
            assert len(model._feature_cache) <= bound
        assert model._feature_cache.stats.evictions > 0

    def test_shared_store_is_bounded_too(self, small_dataset, rng):
        model = BoVWModel(
            vocabulary_size=8, hidden=4, epochs=1, include_global=False
        )
        cache = PredictionCache(max_features=16)
        model.attach_cache(cache)
        model.fit(small_dataset.subset(list(range(40))), rng)
        model.predict_proba(small_dataset)
        assert model._feature_cache is cache.features
        assert len(cache.features) <= 16
