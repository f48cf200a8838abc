"""Tests for repro.core.ipd."""

import numpy as np
import pytest

from repro.bandit.budget import BudgetLedger
from repro.bandit.policies import FixedIncentivePolicy
from repro.core.ipd import IncentivePolicyDesigner
from repro.crowd.delay import INCENTIVE_LEVELS
from repro.utils.clock import TemporalContext


def make_ipd(budget=1000.0, total_queries=100, policy=None, **kwargs):
    return IncentivePolicyDesigner(
        arms=INCENTIVE_LEVELS,
        ledger=BudgetLedger(budget),
        total_queries=total_queries,
        policy=policy,
        **kwargs,
    )


class TestDelayToPayoff:
    def test_inverse_relation(self):
        fast = IncentivePolicyDesigner.delay_to_payoff(60.0)
        slow = IncentivePolicyDesigner.delay_to_payoff(600.0)
        assert fast > slow

    def test_normalization(self):
        assert IncentivePolicyDesigner.delay_to_payoff(600.0) == pytest.approx(-1.0)

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            IncentivePolicyDesigner.delay_to_payoff(-1.0)


class TestBudgetPacing:
    def test_initial_budget_per_query(self):
        ipd = make_ipd(budget=1000.0, total_queries=100)
        assert ipd.budget_per_query() == pytest.approx(10.0)

    def test_pacing_tracks_spending(self):
        ipd = make_ipd(budget=1000.0, total_queries=100)
        ipd.ledger.charge(500.0)
        for _ in range(50):
            ipd.price_query(TemporalContext.MORNING)
        assert ipd.budget_per_query() == pytest.approx(10.0)

    def test_pacing_never_divides_by_zero(self):
        ipd = make_ipd(budget=10.0, total_queries=2)
        for _ in range(5):
            ipd.price_query(TemporalContext.EVENING)
        assert np.isfinite(ipd.budget_per_query())


class TestPriceQuery:
    def test_returns_arm_and_incentive(self):
        ipd = make_ipd(policy=FixedIncentivePolicy(4, INCENTIVE_LEVELS, arm=2))
        arm, incentive = ipd.price_query(TemporalContext.MORNING)
        assert arm == 2
        assert incentive == INCENTIVE_LEVELS[2]

    def test_remaining_context_distribution_shrinks(self):
        counts = {c: 10 for c in TemporalContext.ordered()}
        ipd = make_ipd(total_queries=40, queries_per_context=counts)
        for _ in range(10):
            ipd.price_query(TemporalContext.MORNING)
        dist = ipd.remaining_context_distribution()
        assert dist[TemporalContext.MORNING.index] == pytest.approx(0.0)
        assert dist.sum() == pytest.approx(1.0)

    def test_distribution_uniform_when_exhausted(self):
        counts = {c: 1 for c in TemporalContext.ordered()}
        ipd = make_ipd(total_queries=4, queries_per_context=counts)
        for context in TemporalContext.ordered():
            ipd.price_query(context)
        np.testing.assert_allclose(ipd.remaining_context_distribution(), 0.25)


class TestObserve:
    def test_observe_feeds_policy(self):
        ipd = make_ipd()
        ipd.observe(TemporalContext.MORNING, 0, 300.0)
        stats = ipd.policy.stats[TemporalContext.MORNING.index][0]
        assert stats.pulls == 1
        assert stats.mean_payoff == pytest.approx(-0.5)


class TestWarmStart:
    def test_warm_start_seeds_all_cells(self, population, rng):
        from repro.crowd.delay import DelayModel
        from repro.crowd.pilot import run_pilot_study
        from repro.crowd.platform import CrowdsourcingPlatform
        from repro.crowd.quality import QualityModel
        from repro.data.dataset import build_dataset

        platform = CrowdsourcingPlatform(
            population=population,
            delay_model=DelayModel(),
            quality_model=QualityModel(),
            rng=rng,
            workers_per_query=3,
        )
        train = build_dataset(n_images=30, rng=rng)
        pilot = run_pilot_study(
            platform, train, rng, incentive_levels=INCENTIVE_LEVELS,
            queries_per_cell=3,
        )
        ipd = make_ipd()
        ipd.warm_start(pilot)
        for context in TemporalContext.ordered():
            assert ipd.policy.pull_counts(context.index).min() >= 3

    def test_schedule_reports_greedy_arms(self):
        ipd = make_ipd()
        # Make 4c clearly best in the morning.
        for _ in range(5):
            for arm, level in enumerate(INCENTIVE_LEVELS):
                delay = 100.0 if level == 4.0 else 500.0
                ipd.observe(TemporalContext.MORNING, arm, delay)
        morning = TemporalContext.MORNING.index
        best = int(np.argmax(ipd.policy.mean_payoffs(morning)))
        assert ipd.policy.arms[best] == 4.0
        assert ipd.policy.pull_counts(TemporalContext.EVENING.index).sum() == 0


class TestValidation:
    def test_invalid_total_queries(self):
        with pytest.raises(ValueError):
            make_ipd(total_queries=0)

    def test_policy_arm_mismatch_raises(self):
        policy = FixedIncentivePolicy(4, (1.0, 2.0))
        with pytest.raises(ValueError):
            make_ipd(policy=policy)
