"""Tests for repro.core.resilience and the resilient closed loop."""

import numpy as np
import pytest

from repro.core.resilience import ResilienceCounters, ResiliencePolicy
from repro.crowd.faults import FaultInjector, FaultPlan, PlatformUnavailable
from repro.eval.runner import build_crowdlearn, prepare


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=3, fast=True)


def make_injector(setup, name, **plan_kwargs):
    return FaultInjector(FaultPlan(**plan_kwargs), rng=setup.seeds.get(name))


class TestPolicy:
    def test_defaults_valid(self):
        policy = ResiliencePolicy()
        assert policy.enabled and policy.max_retries == 2

    def test_naive_disables_everything(self):
        policy = ResiliencePolicy.naive()
        assert not policy.enabled
        assert policy.max_retries == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_seconds": -1.0},
            {"max_retries": float("nan")},
            {"max_retries": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)


class TestCounters:
    def test_merge_sums_fields(self):
        a = ResilienceCounters(retries=2, refunded_cents=5.0)
        b = ResilienceCounters(retries=1, fallbacks=3)
        a.merge(b)
        assert a.retries == 3 and a.fallbacks == 3
        assert a.refunded_cents == pytest.approx(5.0)

    def test_any(self):
        assert not ResilienceCounters().any()
        assert ResilienceCounters(dropped_queries=1).any()

    def test_dict_roundtrip_ignores_unknown(self):
        counters = ResilienceCounters(retries=4, outages_hit=2)
        data = counters.as_dict()
        data["not_a_counter"] = 99
        restored = ResilienceCounters.from_dict(data)
        assert restored == counters


class TestFaultFreeParity:
    def test_resilient_equals_naive_without_faults(self, setup):
        """On a clean platform the policies are byte-indistinguishable."""
        outcomes = {}
        for key, policy in (
            ("resilient", None),
            ("naive", ResiliencePolicy.naive()),
        ):
            system = build_crowdlearn(setup, resilience=policy)
            outcomes[key] = system.run(setup.make_stream("parity"))
        a, b = outcomes["resilient"], outcomes["naive"]
        assert len(a.cycles) == len(b.cycles)
        for ca, cb in zip(a.cycles, b.cycles):
            np.testing.assert_array_equal(ca.final_labels, cb.final_labels)
            np.testing.assert_array_equal(ca.final_scores, cb.final_scores)
            np.testing.assert_array_equal(ca.query_indices, cb.query_indices)
            assert ca.crowd_delay == cb.crowd_delay
            assert ca.cost_cents == cb.cost_cents
        assert not a.resilience_totals().any()
        assert not b.resilience_totals().any()


class TestFullAbandonment:
    def test_refunds_and_committee_fallback(self, setup):
        injector = make_injector(setup, "abandon-faults", abandonment_rate=1.0)
        system = build_crowdlearn(
            setup, faults=injector, platform_name="abandon"
        )
        outcome = system.run(setup.make_stream("abandon"))
        totals = outcome.resilience_totals()

        assert len(outcome.cycles) == setup.config.n_cycles  # no crash
        assert totals.fallbacks > 0
        assert totals.refunds == totals.fallbacks
        # Every charge was returned: the deployment cost nothing.
        assert system.ledger.spent == pytest.approx(0.0)
        assert totals.refunded_cents == pytest.approx(
            system.ledger.total_refunded
        )
        assert outcome.total_cost_cents() == pytest.approx(0.0)
        # Nothing was queried, so every label is the committee's.
        for cycle in outcome.cycles:
            assert cycle.query_indices.size == 0
            assert cycle.crowd_delay == 0.0

    def test_naive_crashes_on_empty_responses(self, setup):
        injector = make_injector(
            setup, "abandon-naive-faults", abandonment_rate=1.0
        )
        system = build_crowdlearn(
            setup,
            resilience=ResiliencePolicy.naive(),
            faults=injector,
            platform_name="abandon-naive",
        )
        stream = setup.make_stream("abandon-naive")
        with pytest.raises(ValueError):
            for cycle in stream:
                system.run_cycle(cycle)


class TestOutages:
    def test_retries_recover_short_outage(self, setup):
        injector = make_injector(
            setup, "short-outage-faults", outage_windows=((0, 2),)
        )
        system = build_crowdlearn(
            setup, faults=injector, platform_name="short-outage"
        )
        outcome = system.run(setup.make_stream("short-outage"))
        totals = outcome.resilience_totals()
        assert len(outcome.cycles) == setup.config.n_cycles
        assert totals.retries >= 2  # the two in-window attempts were retried
        assert totals.outages_hit == 2
        assert totals.dropped_queries == 0
        assert totals.backoff_seconds > 0

    def test_long_outage_drops_queries(self, setup):
        injector = make_injector(
            setup, "blackout-faults", outage_windows=((0, 10**9),)
        )
        system = build_crowdlearn(
            setup, faults=injector, platform_name="blackout"
        )
        outcome = system.run(setup.make_stream("blackout"))
        totals = outcome.resilience_totals()
        assert len(outcome.cycles) == setup.config.n_cycles
        assert totals.dropped_queries > 0
        assert system.ledger.spent == 0.0
        # Committee-only labels still cover every image.
        assert outcome.y_pred().shape == outcome.y_true().shape

    def test_naive_propagates_outage(self, setup):
        injector = make_injector(
            setup, "naive-outage-faults", outage_windows=((0, 10**9),)
        )
        system = build_crowdlearn(
            setup,
            resilience=ResiliencePolicy.naive(),
            faults=injector,
            platform_name="naive-outage",
        )
        stream = setup.make_stream("naive-outage")
        with pytest.raises(PlatformUnavailable):
            system.run(stream)

    def test_retry_reposts_at_the_offered_incentive(self, setup):
        from repro.utils.clock import TemporalContext

        injector = make_injector(
            setup, "retry-incentive-faults", outage_windows=((0, 2),)
        )
        system = build_crowdlearn(
            setup,
            resilience=ResiliencePolicy(max_retries=3),
            faults=injector,
            platform_name="retry-incentive",
        )
        counters = ResilienceCounters()
        result = system._post_with_retries(
            setup.test_set[0].metadata, 5.0, TemporalContext.EVENING, counters
        )
        # Two outage attempts, then the third post lands at the same offer.
        assert counters.retries == 2
        assert counters.outages_hit == 2
        assert result.query.incentive_cents == pytest.approx(5.0)
