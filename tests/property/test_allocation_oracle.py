"""Property tests: UCB-ALP's closed-form allocation against a HiGHS oracle.

``UCBALPBandit.allocation`` solves its adaptive LP with a per-context
upper-hull greedy (see :mod:`repro.bandit.ccmb`).  These tests draw small
instances, feed the same LP to scipy's HiGHS (``tests/lp_oracle.py``) and
check that the greedy reaches the same optimum, respects the budget and
returns a vertex.  Where the optimum is not unique, HiGHS may return any
optimal vertex, so allocations are compared only on instances without
slope ties, and the greedy's own tie rule is pinned separately.

UCB indices are set through the public API: with ``exploration=0`` and one
pull per cell, a cell's index is its payoff exactly.  Payoffs lie on a
0.01 grid, so two different hull slopes differ by far more than HiGHS's
optimality tolerance, while exact ties still occur often.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bandit.ccmb import UCBALPBandit
from repro.crowd.delay import INCENTIVE_LEVELS

from tests.lp_oracle import expected_spend, highs_allocation, objective

_ARMS = st.lists(
    st.sampled_from(INCENTIVE_LEVELS), min_size=1, max_size=7, unique=True
)


def paces(arms):
    """ρ exactly on an arm's cost, or anywhere from half the cheapest cost
    to 1.2 times the dearest."""
    return st.one_of(
        st.sampled_from(arms), st.floats(0.5 * min(arms), 1.2 * max(arms))
    )


@st.composite
def instances(draw):
    """(bandit, arm costs, occupancy weights, ρ) of one LP instance."""
    arms = draw(_ARMS)
    n_contexts = draw(st.integers(1, 5))
    bandit = UCBALPBandit(n_contexts, tuple(arms), exploration=0.0)
    cells = list(itertools.product(range(n_contexts), range(len(arms))))
    # An unpulled cell's index is the optimistic ceiling, one above the
    # best pulled index.
    unpulled = draw(st.sets(st.sampled_from(cells), max_size=2))
    for z, arm in cells:
        if (z, arm) not in unpulled:
            bandit.update(z, arm, draw(st.integers(-200, 0)) / 100)
    weights = draw(
        st.lists(st.integers(0, 4), min_size=n_contexts, max_size=n_contexts)
        .filter(any)
    )
    rho = draw(paces(arms))
    return bandit, np.array(arms), np.array(weights, dtype=float), rho


def hull_slopes(costs, values):
    """Slopes of the non-falling upper-hull edges of one context.

    An edge joins two arms whose line has every arm on or below it.
    Collinear arms give one edge per pair, so they show up as repeats.
    """
    slopes = []
    for i, j in itertools.combinations(range(len(costs)), 2):
        if costs[i] == costs[j]:
            continue
        slope = (values[j] - values[i]) / (costs[j] - costs[i])
        line = values[i] + slope * (costs - costs[i])
        if slope >= -1e-12 and np.all(values <= line + 1e-12):
            slopes.append(slope)
    return slopes


def has_slope_ties(indices, costs, p):
    """Whether the LP's optimum may be non-unique in an occupied context."""
    slopes = np.sort(np.concatenate(
        [[0.0]] + [hull_slopes(costs, indices[z]) for z in np.flatnonzero(p)]
    ))
    return bool(np.any(np.diff(slopes) <= 1e-9))


class TestAllocationOracle:
    @settings(max_examples=200, deadline=None)
    @given(instances())
    def test_greedy_is_an_optimal_vertex(self, instance):
        bandit, costs, weights, rho = instance
        allocation = bandit.allocation(rho, context_distribution=weights)
        p = weights / weights.sum()
        indices = bandit._bounded_indices()
        pace = max(rho, costs.min())
        reference = highs_allocation(indices, costs, p, pace)

        assert abs(
            objective(allocation, indices, p) - objective(reference, indices, p)
        ) <= 1e-12
        assert expected_spend(allocation, costs, p) <= pace + 1e-12
        assert np.all(allocation >= 0.0)
        np.testing.assert_allclose(allocation.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        mixed_rows = ((allocation > 0.0) & (allocation < 1.0)).any(axis=1)
        assert mixed_rows.sum() <= 1
        # A context that will not recur plays its cheapest arm.
        for z in np.flatnonzero(p == 0):
            assert allocation[z, np.argmin(costs)] == 1.0
        if not has_slope_ties(indices, costs, p):
            occupied = p > 0
            np.testing.assert_allclose(
                allocation[occupied], reference[occupied], rtol=0, atol=1e-9
            )

    @settings(max_examples=100, deadline=None)
    @given(_ARMS.flatmap(lambda arms: st.tuples(st.just(arms), paces(arms))),
           st.integers(1, 5))
    def test_fresh_bandit_plays_the_cheapest_arm(self, arms_and_pace, n_contexts):
        """Every index ties, so no upgrade pays: the tie rule keeps every
        context on its cheapest arm at any pace."""
        arms, rho = arms_and_pace
        bandit = UCBALPBandit(n_contexts, tuple(arms))
        allocation = bandit.allocation(rho)
        expected = np.zeros_like(allocation)
        expected[:, np.argmin(arms)] = 1.0
        np.testing.assert_array_equal(allocation, expected)
