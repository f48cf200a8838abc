"""Digest parity for the warm-start retrain path.

Warm-start retraining with ``full_refit_every=1`` degenerates to the cold
schedule, and a warm retrain's version bump must reach the guard's
holdout-score memo.  Both claims are checked the strongest way available — the full
closed loop must produce a bit-identical outcome digest.
"""

import dataclasses

import pytest

from repro.core.guards import ModelGuard
from repro.eval.persistence import run_outcome_digest
from repro.eval.runner import build_crowdlearn, prepare


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=11, fast=True)


def _without_memo(monkeypatch) -> None:
    """Make every holdout call score afresh: the memo-free reference."""
    original = ModelGuard.holdout_accuracy

    def unmemoized(self, expert):
        self._scores.clear()
        return original(self, expert)

    monkeypatch.setattr(ModelGuard, "holdout_accuracy", unmemoized)


def _run(setup, name, **overrides):
    config = (
        dataclasses.replace(setup.config, **overrides)
        if overrides
        else setup.config
    )
    system = build_crowdlearn(setup, config=config, platform_name=name)
    outcome = system.run(setup.make_stream(name))
    return system, run_outcome_digest(outcome)


@pytest.fixture(scope="module")
def cold_digest(setup):
    _, digest = _run(setup, "retrain-parity")
    return digest


class TestWarmDigestParity:
    def test_refit_every_cycle_matches_cold(self, setup, cold_digest):
        """``full_refit_every=1`` must be bit-identical to cold retraining.

        Every cycle takes the periodic-refit branch, so the only deltas
        left are the warm-start bookkeeping (ReplayBuffer adds, counters)
        — none of which may leak into training.
        """
        system, digest = _run(
            setup,
            "retrain-parity",
            mic_warm_start=True,
            mic_full_refit_every=1,
        )
        assert digest == cold_digest
        stats = system.mic.retrain_stats()
        assert stats["warm_retrains"] == 0
        assert stats["full_refits"] > 0
        assert stats["replay_buffered"] > 0  # the warm path was armed


class TestWarmRunIntegrity:
    def test_warm_cached_matches_warm_uncached(self, setup, monkeypatch):
        """No stale score may survive a warm retrain's version bump.

        Warm retrains bump ``model_version`` exactly like cold ones; if the
        guard's memo ever served a pre-retrain score afterwards, the
        memoized and memo-free deployments would diverge.
        """
        cached_system, cached = _run(setup, "warm-fresh", mic_warm_start=True)
        _without_memo(monkeypatch)
        _, uncached = _run(setup, "warm-fresh", mic_warm_start=True)
        assert cached == uncached
        assert cached_system.cache.stats()["prediction_hits"] > 0
        assert cached_system.mic.retrain_stats()["warm_retrains"] > 0
