"""Integration tests for the guard's holdout-score memo in the closed loop.

The memo's contract is *invisible speed*: a deployment must be
bit-identical to one that scores every holdout call afresh, while running
each expert on the holdout once per model version instead of once per
call site; and no score may survive a retrain, a guard rollback, an
expert swap-in or a process restart.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core.cache import CacheStats
from repro.core.committee import Committee
from repro.core.guards import GuardCounters, GuardPolicy, ModelGuard
from repro.data.dataset import build_dataset
from repro.eval.runner import build_crowdlearn, prepare
from repro.models.base import next_model_version
from repro.models.bovw_model import BoVWModel


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=7, fast=True)


def _without_memo(monkeypatch) -> None:
    """Make every holdout call score afresh: the memo-free reference."""
    original = ModelGuard.holdout_accuracy

    def unmemoized(self, expert):
        self._scores.clear()
        return original(self, expert)

    monkeypatch.setattr(ModelGuard, "holdout_accuracy", unmemoized)


def _run(setup, name: str):
    system = build_crowdlearn(setup, platform_name=name)
    return system, system.run(setup.make_stream(name))


def _pool_key(dataset) -> tuple[int, ...]:
    return tuple(int(image.image_id) for image in dataset)


class TestDigestParity:
    def test_cached_run_bit_identical_to_uncached(self, setup, monkeypatch):
        """The memo must never change a single bit of the loop's outputs."""
        cached_system, cached = _run(setup, "cache-parity")
        _without_memo(monkeypatch)
        uncached_system, uncached = _run(setup, "cache-parity")
        assert uncached_system.cache.stats()["prediction_hits"] == 0
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
        # ...and the parity is not vacuous: the memo did serve scores.
        stats = cached_system.cache.stats()
        assert stats["prediction_hits"] > 0, stats

    def test_checkpoint_drops_entries_but_keeps_wiring(self, setup):
        """A checkpointed guard carries no memo; BoVW keeps its own store."""
        system, _ = _run(setup, "cache-pickle")
        assert len(system.guards._scores) > 0
        clone = pickle.loads(pickle.dumps(system))
        assert clone.guards._scores == {}
        assert clone.cache.stats()["prediction_hits"] == 0
        (bovw,) = [e for e in clone.committee.experts if isinstance(e, BoVWModel)]
        assert len(bovw.feature_store) == 0
        assert clone.cache.stats()["feature_hits"] == 0
        # The clone's memos work: a rescored expert is memoized again.
        expert = clone.committee.experts[0]
        first = clone.guards.holdout_accuracy(expert)
        assert clone.guards.holdout_accuracy(expert) == first
        assert clone.cache.stats()["prediction_hits"] == 1


class TestComputeOncePerVersion:
    def test_votes_computed_once_per_pool_and_version(self, setup, monkeypatch):
        """Memoized: one compute per (expert, version, pool); without: >= 3.

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
                calls[(self.name, self.model_version, _pool_key(dataset))] += 1
                return _original(self, dataset)

            monkeypatch.setattr(cls, "predict_proba", counted)

        _run(setup, "cache-counts")
        cached_calls = dict(calls)
        assert cached_calls, "counting wrapper never fired"
        assert max(cached_calls.values()) == 1, {
            k: v for k, v in cached_calls.items() if v > 1
        }

        calls.clear()
        _without_memo(monkeypatch)
        _run(setup, "cache-counts")
        uncached_calls = dict(calls)
        # The same loop rescores the holdout at >= 3 call sites.
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


def _guarded_retrain(guard, committee, mic) -> GuardCounters:
    counters = GuardCounters()
    guard.guarded_retrain(
        mic,
        committee,
        [],
        np.empty(0, dtype=np.int64),
        guard.holdout,
        np.random.default_rng(0),
        counters,
    )
    return counters


class TestRollbackInvalidation:
    def test_restored_snapshot_never_serves_candidate_votes(self, holdout):
        """After a rollback the guard must score the restored expert.

        The candidate was scored under its own (newer) version; the
        restored snapshot is another object, so it is scored afresh and
        gets the incumbent's accuracy, never the candidate's.
        """
        policy = GuardPolicy(regression_tolerance=0.25)
        guard = ModelGuard(policy, holdout, 2)
        committee = _StubCommittee(
            [_VersionedExpert("a", 8), _VersionedExpert("b", 9)]
        )
        assert guard.holdout_accuracy(committee.experts[0]) == 0.8
        counters = _guarded_retrain(
            guard, committee, _CorruptingMIC({0: 2})  # 0.8 -> 0.2
        )
        assert counters.rollbacks == 1
        restored = committee.experts[0]
        assert restored.n_correct == 8
        calls_before = restored.calls
        assert guard.holdout_accuracy(restored) == 0.8
        assert restored.calls == calls_before + 1  # scored, not served
        # The untouched expert kept its version and its memoized score.
        untouched = committee.experts[1]
        calls_before = untouched.calls
        assert guard.holdout_accuracy(untouched) == 0.9
        assert untouched.calls == calls_before

    def test_rollback_keeps_the_feature_store(self, holdout):
        """A restored snapshot carries an empty copy of its feature store;
        the rollback hands it the store its candidate used instead (in a
        fleet, the one every event shares)."""
        from repro.core.cache import BoundedCache

        expert = _VersionedExpert("a", 8)
        expert.feature_store = BoundedCache(4)
        shared = expert.feature_store
        guard = ModelGuard(GuardPolicy(), holdout, 1)
        committee = _StubCommittee([expert])
        counters = _guarded_retrain(guard, committee, _CorruptingMIC({0: 2}))
        assert counters.rollbacks == 1
        assert committee.experts[0] is not expert
        assert committee.experts[0].feature_store is shared

    def test_swapped_in_expert_is_not_served_predecessor_votes(self, holdout):
        """Replacing a committee member must not leak the old one's score,
        even when the replacement carries the same name and version."""
        guard = ModelGuard(GuardPolicy(), holdout, 1)
        committee = Committee([_VersionedExpert("a", 2)])
        before = guard.holdout_accuracy(committee.experts[0])
        replacement = _VersionedExpert("a", 9)
        replacement.model_version = committee.experts[0].model_version
        committee.experts[0] = replacement
        after = guard.holdout_accuracy(committee.experts[0])
        assert replacement.calls == 1  # computed, not served stale
        assert (before, after) == (0.2, 0.9)


class TestRetrainInvalidation:
    def test_retrain_without_version_bump_is_bumped_and_dropped(self, holdout):
        """Legacy experts that forget to bump still cannot serve stale scores."""

        class _Forgetful(_VersionedExpert):
            def retrain(self, dataset, labels, rng):
                self.n_correct = 1  # changed behavior, same version
                return self

        guard = ModelGuard(GuardPolicy(), holdout, 1)
        expert = _Forgetful("f", 9)
        committee = Committee([expert])
        assert guard.holdout_accuracy(expert) == 0.9
        version_before = expert.model_version
        committee.retrain(holdout, holdout.labels(), np.random.default_rng(0))
        assert expert.model_version > version_before  # committee bumped it
        assert guard.holdout_accuracy(expert) == 0.1


class TestResumeCollision:
    def test_version_collision_after_resume_is_not_served(self, holdout):
        """A resumed process restarts the version counter, so a new
        parameter state can reuse a version the old process memoized.  The
        pickled guard carries no memo, so the collision is never served."""
        guard = ModelGuard(GuardPolicy(), holdout, 1)
        expert = _VersionedExpert("a", 9)
        assert guard.holdout_accuracy(expert) == 0.9
        resumed_guard, resumed_expert = pickle.loads(
            pickle.dumps((guard, expert))
        )
        assert resumed_guard._scores == {}
        # A different parameter state that drew the same version number.
        resumed_expert.n_correct = 3
        assert resumed_expert.model_version == expert.model_version
        assert resumed_guard.holdout_accuracy(resumed_expert) == 0.3


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
        assert len(model.feature_store) <= bound
        for _ in range(3):
            model.predict_proba(small_dataset)
            assert len(model.feature_store) <= bound
        assert model.feature_store.stats.evictions > 0

    def test_shared_store_is_bounded_too(self, small_dataset, rng):
        from repro.core.cache import BoundedCache

        model = BoVWModel(
            vocabulary_size=8, hidden=4, epochs=1, include_global=False
        )
        shared = BoundedCache(16)
        model.feature_store = shared
        model.fit(small_dataset.subset(list(range(40))), rng)
        model.predict_proba(small_dataset)
        assert model.feature_store is shared
        assert len(shared) <= 16


def _bovw(committee) -> BoVWModel:
    (expert,) = [e for e in committee.experts if isinstance(e, BoVWModel)]
    return expert


class TestClonesKeepFeatures:
    """Copies keep a fitted BoVW expert's features; pickles drop them."""

    def test_fitted_model_and_committee_copies_keep_entries(self, small_dataset, rng):
        model = BoVWModel(vocabulary_size=8, hidden=4, epochs=1)
        model.fit(small_dataset.subset(list(range(40))), rng)
        model.predict_proba(small_dataset.subset(list(range(10))))
        assert model.feature_store.stats.hits > 0
        for clone in (copy.deepcopy(model), _bovw(copy.deepcopy(Committee([model])))):
            assert clone.feature_store is not model.feature_store
            assert len(clone.feature_store) == len(model.feature_store) == 40
            assert clone.feature_store.stats == CacheStats()
            assert clone.feature_version == model.feature_version
        assert len(pickle.loads(pickle.dumps(model)).feature_store) == 0

    def test_deployment_first_cycle_misses_only_its_new_images(self, setup):
        """The guard holdout and the replay pool come from the training set
        the base committee encoded at fit, so only the cycle's own images
        are encoded."""
        system = build_crowdlearn(setup, platform_name="clone-features")
        store = _bovw(system.committee).feature_store
        version = _bovw(system.committee).feature_version
        for image in list(system.guards.holdout) + list(setup.train_set):
            assert (version, image.image_id) in store
        cycle = setup.make_stream("clone-features").cycle(0)
        system.run_cycle(cycle)
        stats = system.cache.stats()
        assert stats["feature_misses"] == len(cycle.images)
        assert stats["feature_hits"] > 0

    def test_second_deployment_encodes_its_own_votes(self, setup):
        """Each clone copies the base's store, never another clone's: a
        second deployment on the same world misses on its first vote."""
        first = build_crowdlearn(setup, platform_name="clone-first")
        first.run(setup.make_stream("clone-first"))
        base_store = _bovw(setup.base_committee).feature_store
        assert len(base_store) == len(setup.train_set)
        second = build_crowdlearn(setup, platform_name="clone-first")
        cycle = setup.make_stream("clone-first").cycle(0)
        expert = _bovw(second.committee)
        for image in cycle.images:
            assert (expert.feature_version, image.image_id) in _bovw(
                first.committee
            ).feature_store
            assert (expert.feature_version, image.image_id) not in expert.feature_store
        second.run_cycle(cycle)
        assert second.cache.stats()["feature_misses"] == len(cycle.images)

    def test_fleet_events_still_share_one_store(self, setup):
        """The serving layer swaps each event's copied store for the
        fleet's one shared store; the base committee's store is untouched."""
        from repro.serve import CrowdLearnService

        service = CrowdLearnService(setup)
        service.submit_event("one")
        service.submit_event("two")
        for event_id in ("one", "two"):
            system = service.registry.get(event_id).system
            assert _bovw(system.committee).feature_store is service.features
        base_store = _bovw(setup.base_committee).feature_store
        base_entries = len(base_store)
        service.drain()
        assert service.features.stats.hits > 0
        assert len(base_store) == base_entries
