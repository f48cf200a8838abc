"""Tests for repro.core.guards (learning-loop guardrails)."""

import pickle

import numpy as np
import pytest

from repro.core.guards import (
    DivergenceSentinel,
    GuardCounters,
    GuardPolicy,
    ModelGuard,
    Snapshot,
    SnapshotChecksumError,
    SnapshotRing,
    get_divergence_sentinel,
    use_divergence_sentinel,
)
from repro.data.dataset import build_dataset
from repro.nn.layers import Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.trainer import Trainer


class _StubExpert:
    """Gets the first ``n_correct`` holdout images right, the rest wrong.

    Module-level so snapshot rings can pickle it; carries a weight array so
    rollback bit-identity is checked on real numpy payloads too.
    """

    def __init__(self, name: str, n_correct: int, n_classes: int = 3) -> None:
        self.name = name
        self.n_correct = n_correct
        self.n_classes = n_classes
        self.weights = np.linspace(0.0, 1.0, 7) * (n_correct + 1)

    def predict(self, dataset) -> np.ndarray:
        truth = dataset.labels()
        predicted = truth.copy()
        predicted[self.n_correct:] = (
            truth[self.n_correct:] + 1
        ) % self.n_classes
        return predicted


class _StubCommittee:
    def __init__(self, experts):
        self.experts = experts


class _CorruptingMIC:
    """Retrain stand-in that degrades chosen experts to a new accuracy."""

    def __init__(self, damage: dict):
        self.damage = damage  # expert index -> new n_correct

    def retrain_experts(self, committee, query_images, truthful, pool, rng):
        for m, n_correct in self.damage.items():
            committee.experts[m].n_correct = n_correct
            committee.experts[m].weights = committee.experts[m].weights * 100.0


class _SentinelPokingMIC:
    """Retrain stand-in that acts like a diverging trainer would."""

    def retrain_experts(self, committee, query_images, truthful, pool, rng):
        sentinel = get_divergence_sentinel()
        assert sentinel is not None
        sentinel.aborts += 2
        sentinel.retries += 1
        sentinel.failures += 1


class _ConstantStepOptimizer:
    """Adds ``lr`` to every parameter element on each step (test double)."""

    def __init__(self, params, lr: float):
        self.params = params
        self.lr = lr

    def step(self) -> None:
        for p in self.params:
            p += self.lr


def make_holdout(n: int = 10):
    return build_dataset(n_images=n, rng=np.random.default_rng(3))


class TestGuardPolicy:
    def test_defaults_enable_everything(self):
        assert GuardPolicy().enabled
        assert GuardPolicy.hardened().enabled

    def test_disabled_turns_everything_off(self):
        assert not GuardPolicy.disabled().enabled

    def test_hardened_is_stricter_than_default(self):
        default, hardened = GuardPolicy(), GuardPolicy.hardened()
        assert hardened.regression_tolerance < default.regression_tolerance
        assert hardened.quarantine_threshold > default.quarantine_threshold
        assert hardened.drift_min_disagreement < default.drift_min_disagreement

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"holdout_size": 0},
            {"regression_tolerance": -0.1},
            {"regression_tolerance": float("inf")},
            {"max_update_ratio": 0.0},
            {"lr_backoff_factor": 1.0},
            {"lr_backoff_factor": 0.0},
            {"quarantine_threshold": 0.5, "readmit_threshold": 0.4},
            {"readmit_patience": 0},
            {"accuracy_ewma_alpha": 0.0},
            {"drift_warmup": 0},
            {"drift_sigma": -1.0},
            {"drift_min_disagreement": 1.5},
            {"drift_reliability_floor": -0.2},
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            GuardPolicy(**kwargs)


class TestGuardCounters:
    def test_merge_accumulates_every_field(self):
        a = GuardCounters(snapshots=1, rollbacks=2, drift_flags=1)
        b = GuardCounters(snapshots=3, quarantines=1, drift_flags=4)
        assert a.merge(b) is a
        assert a.snapshots == 4
        assert a.rollbacks == 2
        assert a.quarantines == 1
        assert a.drift_flags == 5

    def test_any_ignores_snapshots(self):
        assert not GuardCounters().any()
        assert not GuardCounters(snapshots=5).any()
        assert GuardCounters(rollbacks=1).any()
        assert GuardCounters(offloads_skipped=1).any()

    def test_dict_roundtrip_ignores_unknown_keys(self):
        counters = GuardCounters(rollbacks=2, sentinel_retries=1)
        data = counters.as_dict()
        data["not_a_counter"] = 99
        assert GuardCounters.from_dict(data) == counters


class TestSnapshotRing:
    def test_restore_is_bit_identical(self):
        ring = SnapshotRing()
        payload = {"w": np.linspace(-1, 1, 11), "tag": "x"}
        ring.push(payload, tag="expert[0]")
        restored = ring.restore_latest()
        np.testing.assert_array_equal(restored["w"], payload["w"])
        assert restored["w"].dtype == payload["w"].dtype
        assert restored["tag"] == "x"

    def test_ring_evicts_oldest(self):
        """Each push replaces the held snapshot: only the incumbent stays."""
        ring = SnapshotRing()
        for value in (1, 2, 3):
            ring.push(value)
        assert len(ring) == 1
        assert ring.restore_latest() == 3

    def test_empty_ring_raises(self):
        assert len(SnapshotRing()) == 0
        with pytest.raises(LookupError):
            SnapshotRing().latest()

    def test_corrupted_payload_detected(self):
        good = SnapshotRing().push([1, 2, 3], tag="t")
        bad = Snapshot(
            payload=good.payload[:-1] + b"\x00", sha256=good.sha256, tag="t"
        )
        with pytest.raises(SnapshotChecksumError, match="integrity"):
            bad.restore()
        good.verify()  # the untampered snapshot still passes


@pytest.fixture
def dumps_calls(monkeypatch):
    """Counts ``pickle.dumps`` calls made while the test runs."""
    calls = []
    real_dumps = pickle.dumps

    def counting_dumps(obj, *args, **kwargs):
        calls.append(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", counting_dumps)
    return calls


class TestSnapshotReuse:
    """One pickle per (object, model_version); every push still lands."""

    def test_same_object_same_version_is_not_repickled(self, dumps_calls):
        ring = SnapshotRing()
        expert = _WarmStubExpert("e", 3)
        first = ring.push(expert, tag="e[0]")
        assert len(dumps_calls) == 1
        second = ring.push(expert, tag="e[0]")
        assert second is first
        assert len(dumps_calls) == 1
        assert ring.latest() is first

    def test_version_bump_or_other_object_pickles_again(self, dumps_calls):
        ring = SnapshotRing()
        expert = _WarmStubExpert("e", 3)
        first = ring.push(expert)
        expert.model_version += 1
        bumped = ring.push(expert)
        assert bumped is not first
        assert len(dumps_calls) == 2
        twin = _WarmStubExpert("e", 3)
        twin.model_version = expert.model_version  # a different object
        assert ring.push(twin) is not bumped
        assert len(dumps_calls) == 3
        # A restored copy is a new object too, so it pickles once.
        clone = ring.restore_latest()
        ring.push(clone)
        ring.push(clone)
        assert len(dumps_calls) == 4

    def test_unversioned_objects_pickle_on_every_push(self, dumps_calls):
        ring = SnapshotRing()
        expert = _StubExpert("a", n_correct=3)
        assert ring.push(expert) is not ring.push(expert)
        assert len(dumps_calls) == 2

    def test_eviction_with_repeated_entries(self):
        """A reused snapshot is replaced once the version moves on."""
        ring = SnapshotRing()
        expert = _WarmStubExpert("e", 3)
        first = ring.push(expert)
        for _ in range(3):
            assert ring.push(expert) is first
        expert.model_version += 1
        expert.weights = expert.weights * 2.0
        second = ring.push(expert)
        assert second is not first
        assert ring.latest() is second
        expert.model_version += 1
        third = ring.push(expert)
        assert ring.latest() is third
        np.testing.assert_array_equal(
            ring.restore_latest().weights, expert.weights
        )

    def test_reused_entry_corruption_is_detected(self):
        ring = SnapshotRing()
        expert = _WarmStubExpert("e", 3)
        snapshot = ring.push(expert, tag="e[0]")
        assert ring.push(expert, tag="e[0]") is snapshot
        # Flip one payload byte in place (the snapshot is frozen).
        corrupt = bytearray(snapshot.payload)
        corrupt[-2] ^= 0xFF
        object.__setattr__(snapshot, "payload", bytes(corrupt))
        with pytest.raises(SnapshotChecksumError, match="integrity"):
            ring.restore_latest()

    def test_unpickled_guard_restores_same_bytes_then_repickles(
        self, dumps_calls
    ):
        guard = ModelGuard(GuardPolicy(), make_holdout(), 1)
        ring = guard.snapshot_ring(0)
        expert = _WarmStubExpert("e", 3)
        ring.push(expert, tag="e[0]")
        ring.push(expert, tag="e[0]")
        restored = pickle.loads(pickle.dumps(guard))
        restored_ring = restored.snapshot_ring(0)
        assert len(restored_ring) == 1
        assert restored_ring.latest().payload == ring.latest().payload
        np.testing.assert_array_equal(
            restored_ring.restore_latest().weights, expert.weights
        )
        # The resumed ring holds no reference to the live expert, so its
        # first push pickles; the second one reuses.
        calls = len(dumps_calls)
        pushed = restored_ring.push(expert, tag="e[0]")
        assert len(dumps_calls) == calls + 1
        assert restored_ring.push(expert, tag="e[0]") is pushed
        assert len(dumps_calls) == calls + 1


class TestDivergenceSentinel:
    def test_nonfinite_loss_diverges(self):
        sentinel = DivergenceSentinel()
        params = [np.ones(3)]
        assert sentinel.diverged(float("nan"), params, params)
        assert sentinel.diverged(float("inf"), params, params)

    def test_nonfinite_params_diverge(self):
        sentinel = DivergenceSentinel()
        before = [np.ones(3)]
        after = [np.array([1.0, np.inf, 1.0])]
        assert sentinel.diverged(0.5, before, after)

    def test_update_ratio_threshold(self):
        sentinel = DivergenceSentinel(max_update_ratio=1.0)
        before = [np.ones(4)]  # norm 2
        small = [np.ones(4) + 0.1]
        huge = [np.ones(4) + 2.0]  # update norm 4 > 1.0 * 2
        assert not sentinel.diverged(0.5, before, small)
        assert sentinel.diverged(0.5, before, huge)

    def test_process_default_scoping(self):
        assert get_divergence_sentinel() is None
        sentinel = DivergenceSentinel()
        with use_divergence_sentinel(sentinel):
            assert get_divergence_sentinel() is sentinel
            inner = DivergenceSentinel()
            with use_divergence_sentinel(inner):
                assert get_divergence_sentinel() is inner
            assert get_divergence_sentinel() is sentinel
        assert get_divergence_sentinel() is None


class TestTrainerSentinel:
    """Deterministic divergence via a scripted constant-step optimizer."""

    def make_trainer(self, lr: float, seed: int = 4):
        rng = np.random.default_rng(seed)
        model = Sequential([Dense(2, 2, rng)])
        for p in model.params():
            p[...] = 1.0  # parameter norm = sqrt(6)
        optimizer = _ConstantStepOptimizer(model.params(), lr=lr)
        trainer = Trainer(
            model, SoftmaxCrossEntropy(), optimizer, rng=rng,
            batch_size=8,
        )
        x = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        y = np.array([0, 1, 0, 1], dtype=np.int64)
        return trainer, x, y

    def test_retry_at_reduced_lr_succeeds(self):
        # One batch of constant step lr: update norm = lr * sqrt(6).  At
        # lr=1.5 that exceeds max_update_ratio=1 * param norm sqrt(6); the
        # retry at lr=0.75 stays under it.
        sentinel = DivergenceSentinel(max_update_ratio=1.0, lr_backoff_factor=0.5)
        trainer, x, y = self.make_trainer(lr=1.5)
        with use_divergence_sentinel(sentinel):
            history = trainer.fit(x, y, epochs=1)
        assert history.epochs == 1
        assert (sentinel.aborts, sentinel.retries, sentinel.failures) == (1, 1, 0)
        for p in trainer.model.params():
            np.testing.assert_array_equal(p, np.full_like(p, 1.75))
        assert trainer.optimizer.lr == 1.5  # backoff was scoped to the retry

    def test_double_divergence_gives_up_cleanly(self):
        sentinel = DivergenceSentinel(max_update_ratio=1.0, lr_backoff_factor=0.5)
        trainer, x, y = self.make_trainer(lr=10.0)
        with use_divergence_sentinel(sentinel):
            history = trainer.fit(x, y, epochs=3)
        assert history.epochs == 0  # fit stopped, no garbage epoch recorded
        assert (sentinel.aborts, sentinel.retries, sentinel.failures) == (1, 1, 1)
        for p in trainer.model.params():  # last good weights, bit-identical
            np.testing.assert_array_equal(p, np.ones_like(p))

    def test_process_default_sentinel_is_picked_up(self):
        sentinel = DivergenceSentinel(max_update_ratio=1.0, lr_backoff_factor=0.5)
        trainer, x, y = self.make_trainer(lr=10.0)
        with use_divergence_sentinel(sentinel):
            history = trainer.fit(x, y, epochs=1)
        assert history.epochs == 0
        assert sentinel.failures == 1

    def test_disabled_sentinel_is_ignored(self):
        """A disabled guard installs ``None``, masking any outer sentinel."""
        sentinel = DivergenceSentinel(max_update_ratio=1.0)
        trainer, x, y = self.make_trainer(lr=10.0)
        with use_divergence_sentinel(sentinel), use_divergence_sentinel(None):
            history = trainer.fit(x, y, epochs=1)
        assert history.epochs == 1  # unguarded: the divergent epoch stands
        assert sentinel.aborts == 0
        for p in trainer.model.params():
            np.testing.assert_array_equal(p, np.full_like(p, 11.0))

    def test_sentinel_run_is_deterministic(self):
        losses = []
        for _ in range(2):
            sentinel = DivergenceSentinel(
                max_update_ratio=1.0, lr_backoff_factor=0.5
            )
            trainer, x, y = self.make_trainer(lr=1.5)
            with use_divergence_sentinel(sentinel):
                history = trainer.fit(x, y, epochs=2)
            losses.append(tuple(history.train_loss))
            assert sentinel.counter_state() == (1, 1, 0)
        assert losses[0] == losses[1]


class TestQuarantine:
    def make_guard(self, n_experts=3, **overrides) -> ModelGuard:
        defaults = dict(
            quarantine_threshold=0.3,
            readmit_threshold=0.6,
            readmit_patience=2,
            accuracy_ewma_alpha=1.0,  # EWMA == latest observation
        )
        defaults.update(overrides)
        return ModelGuard(GuardPolicy(**defaults), make_holdout(), n_experts)

    def test_collapse_quarantines_and_masks(self):
        guard = self.make_guard()
        counters = GuardCounters()
        assert guard.active_mask() is None
        guard.observe_member_accuracy(np.array([0.9, 0.1, 0.9]), counters)
        assert counters.quarantines == 1
        np.testing.assert_array_equal(
            guard.active_mask(), [True, False, True]
        )
        np.testing.assert_array_equal(
            guard.quarantined, [False, True, False]
        )

    def test_readmission_needs_sustained_recovery(self):
        guard = self.make_guard()
        counters = GuardCounters()
        guard.observe_member_accuracy(np.array([0.9, 0.1, 0.9]), counters)
        guard.observe_member_accuracy(np.array([0.9, 0.7, 0.9]), counters)
        assert guard.active_mask() is not None  # one good cycle is not enough
        guard.observe_member_accuracy(np.array([0.9, 0.7, 0.9]), counters)
        assert guard.active_mask() is None  # patience=2 reached
        assert counters.readmissions == 1

    def test_recovery_streak_resets_on_relapse(self):
        guard = self.make_guard()
        counters = GuardCounters()
        guard.observe_member_accuracy(np.array([0.9, 0.1, 0.9]), counters)
        guard.observe_member_accuracy(np.array([0.9, 0.7, 0.9]), counters)
        guard.observe_member_accuracy(np.array([0.9, 0.1, 0.9]), counters)  # relapse
        guard.observe_member_accuracy(np.array([0.9, 0.7, 0.9]), counters)
        assert guard.active_mask() is not None  # streak restarted from zero
        guard.observe_member_accuracy(np.array([0.9, 0.7, 0.9]), counters)
        assert guard.active_mask() is None
        assert counters.readmissions == 1

    def test_last_active_member_is_never_quarantined(self):
        guard = self.make_guard()
        counters = GuardCounters()
        guard.observe_member_accuracy(np.array([0.0, 0.0, 0.0]), counters)
        assert counters.quarantines == 2
        assert guard.active_mask().sum() == 1

    def test_ewma_smoothing_delays_the_trigger(self):
        guard = self.make_guard(
            accuracy_ewma_alpha=0.5, quarantine_threshold=0.4,
            readmit_threshold=0.6,
        )
        counters = GuardCounters()
        guard.observe_member_accuracy(np.array([0.9, 1.0, 0.9]), counters)
        guard.observe_member_accuracy(np.array([0.9, 0.0, 0.9]), counters)
        assert counters.quarantines == 0  # EWMA 0.5 still above threshold
        guard.observe_member_accuracy(np.array([0.9, 0.0, 0.9]), counters)
        assert counters.quarantines == 1  # EWMA 0.25 crossed it

    def test_observe_committee_scores_on_holdout(self):
        guard = self.make_guard(accuracy_ewma_alpha=1.0)
        n = len(guard.holdout)
        committee = _StubCommittee(
            [
                _StubExpert("good", n_correct=n),
                _StubExpert("dead", n_correct=0),
                _StubExpert("ok", n_correct=n),
            ]
        )
        counters = GuardCounters()
        guard.observe_committee(committee, counters)
        assert counters.quarantines == 1
        np.testing.assert_array_equal(
            guard.quarantined, [False, True, False]
        )

    def test_wrong_member_count_raises(self):
        guard = self.make_guard(n_experts=3)
        with pytest.raises(ValueError, match="member accuracies"):
            guard.observe_member_accuracy(np.array([1.0, 1.0]), GuardCounters())

    def test_disabled_quarantine_is_inert(self):
        guard = ModelGuard(GuardPolicy.disabled(), make_holdout(), 2)
        counters = GuardCounters()
        guard.observe_member_accuracy(np.array([0.0, 0.0]), counters)
        dead = _StubExpert("dead", n_correct=0)
        guard.observe_committee(_StubCommittee([dead, dead]), counters)
        assert counters.quarantines == 0
        assert guard.active_mask() is None


class TestDriftDetector:
    def make_guard(self, **overrides) -> ModelGuard:
        defaults = dict(
            drift_warmup=2,
            drift_sigma=3.0,
            drift_min_disagreement=0.5,
            drift_reliability_floor=0.8,
        )
        defaults.update(overrides)
        return ModelGuard(GuardPolicy(**defaults), make_holdout(), 3)

    @staticmethod
    def agreeing(n=5):
        labels = np.arange(n) % 3
        return labels, labels.copy()

    @staticmethod
    def disagreeing(n=5):
        labels = np.arange(n) % 3
        return labels, (labels + 1) % 3

    def test_no_flags_during_warmup(self):
        guard = self.make_guard()
        counters = GuardCounters()
        consensus, poisoned = self.disagreeing()
        assert not guard.observe_labels(consensus, poisoned, None, counters)
        assert counters.drift_flags == 0

    def test_flags_after_warmup(self):
        guard = self.make_guard()
        counters = GuardCounters()
        for _ in range(2):
            guard.observe_labels(*self.agreeing(), None, counters)
        flagged = guard.observe_labels(*self.disagreeing(), None, counters)
        assert flagged
        assert counters.drift_flags == 1

    def test_trusted_workers_suppress_the_flag(self):
        guard = self.make_guard()
        counters = GuardCounters()
        for _ in range(2):
            guard.observe_labels(*self.agreeing(), None, counters)
        flagged = guard.observe_labels(*self.disagreeing(), 0.95, counters)
        assert not flagged
        assert counters.drift_flags == 0

    def test_flagged_cycles_stay_out_of_history(self):
        guard = self.make_guard()
        counters = GuardCounters()
        for _ in range(2):
            guard.observe_labels(*self.agreeing(), None, counters)
        history_before = list(guard._disagreement_history)
        for _ in range(3):  # poison must not become the new normal
            assert guard.observe_labels(*self.disagreeing(), None, counters)
        assert guard._disagreement_history == history_before
        assert counters.drift_flags == 3

    def test_empty_query_set_never_flags(self):
        guard = self.make_guard()
        empty = np.empty(0, dtype=np.int64)
        assert not guard.observe_labels(empty, empty, None, GuardCounters())

    def test_mismatched_shapes_raise(self):
        guard = self.make_guard()
        with pytest.raises(ValueError, match="align"):
            guard.observe_labels(
                np.zeros(3, dtype=np.int64),
                np.zeros(4, dtype=np.int64),
                None,
                GuardCounters(),
            )

    def test_disabled_detector_never_flags(self):
        guard = ModelGuard(GuardPolicy.disabled(), make_holdout(), 3)
        counters = GuardCounters()
        for _ in range(5):
            assert not guard.observe_labels(
                *self.disagreeing(), None, counters
            )
        assert counters.drift_flags == 0


class TestGuardedRetrain:
    def make_guard(self, holdout, **overrides) -> ModelGuard:
        return ModelGuard(GuardPolicy(**overrides), holdout, 2)

    def test_regression_rolls_back_bit_identically(self):
        holdout = make_holdout(10)
        guard = self.make_guard(holdout, regression_tolerance=0.25)
        experts = [_StubExpert("a", n_correct=8), _StubExpert("b", n_correct=9)]
        committee = _StubCommittee(experts)
        original_payload = pickle.dumps(experts[0].weights)
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
        assert counters.snapshots == 2
        assert counters.rollbacks == 1
        assert committee.experts[0].n_correct == 8  # restored incumbent
        assert committee.experts[1].n_correct == 9  # untouched, kept
        # The restored expert's parameters are the snapshot's, bit for bit.
        assert pickle.dumps(committee.experts[0].weights) == original_payload

    def test_regression_within_tolerance_is_kept(self):
        holdout = make_holdout(10)
        guard = self.make_guard(holdout, regression_tolerance=0.25)
        committee = _StubCommittee(
            [_StubExpert("a", n_correct=8), _StubExpert("b", n_correct=9)]
        )
        counters = GuardCounters()
        guard.guarded_retrain(
            _CorruptingMIC({0: 7}),  # 0.8 -> 0.7 is inside the tolerance
            committee,
            [],
            np.empty(0, dtype=np.int64),
            holdout,
            np.random.default_rng(0),
            counters,
        )
        assert counters.rollbacks == 0
        assert committee.experts[0].n_correct == 7

    def test_sentinel_counters_are_drained_per_call(self):
        holdout = make_holdout(10)
        guard = self.make_guard(holdout)
        committee = _StubCommittee(
            [_StubExpert("a", n_correct=8), _StubExpert("b", n_correct=9)]
        )
        for expected in (1, 2):  # deltas, not cumulative totals
            counters = GuardCounters()
            guard.guarded_retrain(
                _SentinelPokingMIC(),
                committee,
                [],
                np.empty(0, dtype=np.int64),
                holdout,
                np.random.default_rng(0),
                counters,
            )
            assert counters.sentinel_aborts == 2
            assert counters.sentinel_retries == 1
            assert counters.sentinel_failures == 1
            assert guard._sentinel.aborts == 2 * expected
        assert get_divergence_sentinel() is None  # default was restored

    def test_expert_count_mismatch_raises(self):
        holdout = make_holdout(10)
        guard = self.make_guard(holdout)
        committee = _StubCommittee([_StubExpert("a", n_correct=5)])
        with pytest.raises(ValueError, match="experts"):
            guard.guarded_retrain(
                _CorruptingMIC({}),
                committee,
                [],
                np.empty(0, dtype=np.int64),
                holdout,
                np.random.default_rng(0),
                GuardCounters(),
            )


class TestModelGuardConstruction:
    def test_build_reserves_holdout_slice(self):
        pool = make_holdout(30)
        policy = GuardPolicy(holdout_size=10)
        guard = ModelGuard.build(policy, pool, 3, np.random.default_rng(1))
        assert len(guard.holdout) == 10
        assert guard.n_experts == 3

    def test_build_caps_holdout_at_pool_size(self):
        pool = make_holdout(6)
        policy = GuardPolicy(holdout_size=100)
        guard = ModelGuard.build(policy, pool, 2, np.random.default_rng(1))
        assert len(guard.holdout) == 6

    def test_build_is_deterministic_given_rng(self):
        pool = make_holdout(30)
        policy = GuardPolicy(holdout_size=8)
        a = ModelGuard.build(policy, pool, 2, np.random.default_rng(9))
        b = ModelGuard.build(policy, pool, 2, np.random.default_rng(9))
        np.testing.assert_array_equal(
            a.holdout.labels(), b.holdout.labels()
        )

    def test_empty_pool_raises(self):
        empty = make_holdout(6).subset([])
        with pytest.raises(ValueError, match="empty golden pool"):
            ModelGuard.build(
                GuardPolicy(), empty, 2, np.random.default_rng(0)
            )

    def test_empty_holdout_with_gate_or_quarantine_raises(self):
        empty = make_holdout(6).subset([])
        with pytest.raises(ValueError, match="holdout"):
            ModelGuard(GuardPolicy(), empty, 2)

    def test_invalid_expert_count_raises(self):
        with pytest.raises(ValueError, match="n_experts"):
            ModelGuard(GuardPolicy(), make_holdout(), 0)

    def test_rebind_resets_per_expert_state(self):
        guard = ModelGuard(GuardPolicy(), make_holdout(), 3)
        counters = GuardCounters()
        guard.observe_member_accuracy(np.array([0.9, 0.0, 0.9]), counters)
        assert guard.active_mask() is not None
        guard.snapshot_ring(0).push("old expert")
        guard.rebind(2)
        assert guard.n_experts == 2
        assert guard.active_mask() is None  # quarantine memory cleared
        assert len(guard.snapshot_ring(0)) == 0  # rings cleared too
        guard.observe_member_accuracy(np.array([0.9, 0.9]), GuardCounters())
        with pytest.raises(ValueError, match="n_experts"):
            guard.rebind(0)

    def test_guard_state_survives_pickle(self):
        guard = ModelGuard(GuardPolicy(), make_holdout(), 2)
        counters = GuardCounters()
        guard.observe_member_accuracy(np.array([0.9, 0.0]), counters)
        restored = pickle.loads(pickle.dumps(guard))
        np.testing.assert_array_equal(
            restored.quarantined, guard.quarantined
        )
        np.testing.assert_array_equal(
            restored.holdout.labels(), guard.holdout.labels()
        )


class _WarmStubExpert(_StubExpert):
    """Versioned _StubExpert whose retrain can corrupt on a chosen call."""

    def __init__(self, name: str, n_correct: int, corrupt_on_call: int | None = None):
        super().__init__(name, n_correct)
        from repro.models.base import next_model_version

        self.model_version = next_model_version()
        self.corrupt_on_call = corrupt_on_call
        self.retrain_epochs_seen = []

    def retrain(self, dataset, labels, rng, *, epochs=None):
        from repro.models.base import next_model_version

        self.retrain_epochs_seen.append(epochs)
        if len(self.retrain_epochs_seen) == self.corrupt_on_call:
            self.n_correct = 1
            self.weights = self.weights * 100.0
        self.model_version = next_model_version(self.model_version)
        return self


class TestGuardSpans:
    def test_snapshot_and_score_spans(self):
        from repro.telemetry import Telemetry

        holdout = make_holdout(10)
        guard = ModelGuard(GuardPolicy(), holdout, 2)
        committee = _StubCommittee(
            [_WarmStubExpert("a", 8), _WarmStubExpert("b", 9)]
        )
        telemetry = Telemetry()
        for _ in range(2):  # the stand-in MIC leaves both versions alone
            guard.guarded_retrain(
                _CorruptingMIC({}), committee, [], np.empty(0, dtype=np.int64),
                holdout, np.random.default_rng(0), GuardCounters(),
                telemetry=telemetry,
            )
        snaps = telemetry.tracer.by_name("guard.snapshot")
        assert [s.attributes["expert"] for s in snaps] == [
            "a[0]", "b[1]", "a[0]", "b[1]",
        ]
        assert [s.attributes["reused"] for s in snaps] == [0, 0, 1, 1]
        assert all(s.attributes["bytes"] > 0 for s in snaps)
        scores = telemetry.tracer.by_name("guard.score")
        assert len(scores) == 2
        assert scores[0].attributes["experts"] == 2


class TestWarmRetrainRollback:
    def test_warm_regression_rolls_back_bit_identically(self):
        """A regressing *warm* retrain restores the incumbent byte for byte.

        The warm-start path shares ``ModelGuard.guarded_retrain`` with the
        cold path, so the regression gate must catch a bad incremental
        fine-tune exactly as it catches a bad full refit.
        """
        from repro.core.committee import Committee
        from repro.core.mic import MachineIntelligenceCalibrator

        holdout = make_holdout(10)
        guard = ModelGuard(
            GuardPolicy(regression_tolerance=0.25), holdout, 2
        )
        bad = _WarmStubExpert("a", 8, corrupt_on_call=2)
        good = _WarmStubExpert("b", 9)
        committee = Committee([bad, good])
        mic = MachineIntelligenceCalibrator(
            warm_start=True,
            replay_size=0,
            warm_replay_sample=0,
            full_refit_every=0,
        )
        queries = [holdout[i] for i in range(3)]
        truthful = holdout.labels()[:3]
        rng = np.random.default_rng(0)
        # Retrain 1 is the cold bootstrap (benign); retrain 2 is warm and
        # corrupts expert "a" far past the tolerance.
        guard.guarded_retrain(
            mic, committee, queries, truthful, holdout, rng, GuardCounters()
        )
        incumbent_payload = pickle.dumps(committee.experts[0].weights)
        counters = GuardCounters()
        guard.guarded_retrain(
            mic, committee, queries, truthful, holdout, rng, counters
        )
        assert mic.retrain_stats()["warm_retrains"] == 1
        assert counters.rollbacks == 1
        restored = committee.experts[0]
        assert restored.n_correct == 8
        assert pickle.dumps(restored.weights) == incumbent_payload
        # The kept expert really took the short warm schedule.
        assert committee.experts[1].retrain_epochs_seen == [None, 1]
