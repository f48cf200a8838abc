"""Tests for repro.bandit.ccmb (UCB-ALP)."""

import numpy as np
import pytest

from repro.bandit.ccmb import UCBALPBandit

ARMS = (1.0, 2.0, 4.0, 8.0)


def warmed_bandit(payoffs_by_context, pulls=30, rng_seed=0, **kwargs):
    """A bandit warm-started so each (context, arm) has `pulls` samples."""
    n_contexts = len(payoffs_by_context)
    bandit = UCBALPBandit(n_contexts, ARMS, **kwargs)
    rng = np.random.default_rng(rng_seed)
    for z, payoffs in enumerate(payoffs_by_context):
        for arm, mean in enumerate(payoffs):
            for _ in range(pulls):
                bandit.update(z, arm, mean + rng.normal(0, 0.01))
    return bandit


class TestUcbIndices:
    def test_unpulled_arm_is_infinite(self):
        bandit = UCBALPBandit(2, ARMS)
        assert np.isinf(bandit.ucb_indices(0)).all()

    def test_index_exceeds_mean(self):
        bandit = UCBALPBandit(1, ARMS, exploration=1.0)
        for _ in range(5):
            bandit.update(0, 0, -1.0)
        assert bandit.ucb_indices(0)[0] > -1.0

    def test_radius_shrinks_with_pulls(self):
        bandit = UCBALPBandit(1, ARMS, exploration=1.0)
        for _ in range(5):
            bandit.update(0, 0, -1.0)
        early = bandit.ucb_indices(0)[0]
        for _ in range(500):
            bandit.update(0, 0, -1.0)
        late = bandit.ucb_indices(0)[0]
        assert late < early

    def test_zero_exploration_equals_mean(self):
        bandit = UCBALPBandit(1, ARMS, exploration=0.0)
        for _ in range(10):
            bandit.update(0, 2, -0.5)
        assert bandit.ucb_indices(0)[2] == pytest.approx(-0.5)


class TestAllocation:
    def test_no_budget_plays_best_arm(self):
        bandit = warmed_bandit([[-0.9, -0.5, -0.3, -0.1]], exploration=0.0)
        allocation = bandit.allocation(None)
        assert allocation[0, 3] == pytest.approx(1.0)

    def test_rows_are_distributions(self):
        bandit = warmed_bandit(
            [[-0.9, -0.5, -0.3, -0.1], [-0.2, -0.3, -0.4, -0.5]],
            exploration=0.0,
        )
        allocation = bandit.allocation(3.0)
        np.testing.assert_allclose(allocation.sum(axis=1), 1.0)
        assert (allocation >= 0).all()

    def test_budget_constraint_respected_in_expectation(self):
        bandit = warmed_bandit(
            [[-0.9, -0.5, -0.3, -0.1], [-0.9, -0.5, -0.3, -0.1]],
            exploration=0.0,
        )
        rho = 3.0
        allocation = bandit.allocation(rho)
        expected_cost = (allocation @ np.array(ARMS) * 0.5).sum()
        assert expected_cost <= rho + 1e-6

    def test_tight_budget_forces_cheapest(self):
        bandit = warmed_bandit([[-0.9, -0.5, -0.3, -0.1]], exploration=0.0)
        allocation = bandit.allocation(0.5)  # below the cheapest arm's cost
        assert allocation[0, 0] == pytest.approx(1.0)

    def test_lp_shifts_spend_to_context_that_benefits(self):
        # Context 0: delay falls steeply with incentive; context 1: flat.
        steep = [-2.0, -1.5, -1.0, -0.3]
        flat = [-0.6, -0.55, -0.55, -0.5]
        bandit = warmed_bandit([steep, flat], exploration=0.0)
        allocation = bandit.allocation(4.5)  # can afford 8c in one context
        spend = allocation @ np.array(ARMS)
        assert spend[0] > spend[1]

    def test_remaining_context_distribution_override(self):
        steep = [-2.0, -1.5, -1.0, -0.3]
        flat = [-0.6, -0.55, -0.55, -0.5]
        bandit = warmed_bandit([steep, flat], exploration=0.0)
        # If the steep context will never occur again, all pacing goes flat.
        allocation = bandit.allocation(
            2.0, context_distribution=np.array([0.0, 1.0])
        )
        assert allocation[1].sum() == pytest.approx(1.0)

    def test_bad_context_distribution_raises(self):
        bandit = warmed_bandit([[-1.0, -1.0, -1.0, -1.0]])
        with pytest.raises(ValueError):
            bandit.allocation(2.0, context_distribution=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("budget", [np.nan, np.inf, -np.inf])
    def test_non_finite_budget_raises(self, budget):
        bandit = warmed_bandit([[-0.9, -0.5, -0.3, -0.1]] * 2)
        with pytest.raises(ValueError, match="budget_per_round"):
            bandit.allocation(budget)
        with pytest.raises(ValueError, match="budget_per_round"):
            bandit.select(0, budget)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_context_distribution_raises(self, entry):
        bandit = warmed_bandit([[-0.9, -0.5, -0.3, -0.1]] * 2)
        with pytest.raises(ValueError, match="context_distribution"):
            bandit.allocation(
                3.0, context_distribution=np.array([0.5, entry])
            )


class TestSelect:
    def test_deterministic_without_rng(self):
        bandit = warmed_bandit([[-0.9, -0.5, -0.3, -0.1]], exploration=0.0)
        picks = {bandit.select(0, None) for _ in range(5)}
        assert picks == {3}

    def test_sampling_with_rng_follows_allocation(self):
        steep = [-2.0, -1.5, -1.0, -0.3]
        bandit = warmed_bandit(
            [steep], exploration=0.0, rng=np.random.default_rng(0)
        )
        picks = [bandit.select(0, None) for _ in range(20)]
        assert all(p == 3 for p in picks)

    def test_select_validates_context(self):
        bandit = UCBALPBandit(2, ARMS)
        with pytest.raises(IndexError):
            bandit.select(5)

    def test_greedy_arm(self):
        bandit = warmed_bandit([[-0.9, -0.1, -0.5, -0.7]])
        assert bandit.greedy_arm(0) == 1


class TestConstruction:
    def test_invalid_exploration_raises(self):
        with pytest.raises(ValueError):
            UCBALPBandit(2, ARMS, exploration=-1.0)

    def test_invalid_context_distribution_raises(self):
        with pytest.raises(ValueError):
            UCBALPBandit(2, ARMS, context_distribution=np.array([1.0]))

    def test_empty_arms_raise(self):
        with pytest.raises(ValueError):
            UCBALPBandit(2, ())


class TestConvergence:
    def test_ucb_bandit_has_sublinear_regret(self):
        """The UCB-ALP learner converges: late regret slope < early slope.

        Regret of each pull is the hindsight-best arm's empirical mean
        payoff in that context minus the realized payoff.
        """
        rng = np.random.default_rng(1)
        true_means = np.array([[-1.2, -0.6, -0.2], [-0.3, -0.9, -1.4]])
        bandit = UCBALPBandit(2, (1.0, 2.0, 4.0), exploration=0.6)
        contexts, arms, payoffs = [], [], []
        for t in range(800):
            context = t % 2
            arm = bandit.select(context, None)
            payoff = float(true_means[context, arm] + rng.normal(0, 0.05))
            bandit.update(context, arm, payoff)
            contexts.append(context)
            arms.append(arm)
            payoffs.append(payoff)
        contexts, arms, payoffs = map(np.asarray, (contexts, arms, payoffs))
        total = np.zeros((2, 3))
        count = np.zeros((2, 3))
        np.add.at(total, (contexts, arms), payoffs)
        np.add.at(count, (contexts, arms), 1)
        means = np.where(count > 0, total / np.maximum(count, 1), -np.inf)
        cumulative = np.cumsum(means.max(axis=1)[contexts] - payoffs)
        window = len(cumulative) // 4
        early = cumulative[window - 1] / window
        late = (cumulative[-1] - cumulative[-window - 1]) / window
        assert late <= early + 1e-12
        # And it found the per-context best arms.
        np.testing.assert_array_equal(means.argmax(axis=1), [2, 0])
