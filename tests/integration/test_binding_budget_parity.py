"""UCB-ALP pricing when the crowd budget binds.

The default deployments have more budget than their queries can spend, so
every adaptive-LP allocation they make is a pure vertex: each context
plays its UCB-best arm.  This deployment gets a 60-cent budget for 16
queries, which puts the pacing signal ρ between two incentive levels and
forces mixed rows.  Every ``allocation`` call is checked against the
scipy HiGHS oracle, including the arm each row would draw from the
bandit's RNG, and the whole run is pinned by its outcome digest in
``tests/golden/binding_budget.json``.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.bandit.ccmb import UCBALPBandit
from repro.eval.persistence import run_outcome_digest
from repro.eval.runner import build_crowdlearn, prepare

from tests.golden import Family
from tests.lp_oracle import highs_allocation

#: Outcome digest of the binding-budget run at seed 0.
GOLDEN = Family("binding_budget", ["seed0"])


@pytest.fixture(scope="module")
def binding_run():
    setup = prepare(seed=0, fast=True)
    config = dataclasses.replace(
        setup.config, budget_usd=0.6, mic_retrain=False
    )
    solve = UCBALPBandit.allocation
    calls = []

    def checked(self, budget_per_round, context_distribution=None):
        allocation = solve(self, budget_per_round, context_distribution)
        if context_distribution is None:
            p = self.context_distribution
        else:
            p = np.asarray(context_distribution, dtype=np.float64)
            p = p / p.sum()
        costs = np.array(self.arms)
        reference = highs_allocation(
            self._bounded_indices(), costs, p, max(budget_per_round, costs.min())
        )
        calls.append((allocation, reference, copy.deepcopy(self.rng)))
        return allocation

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(UCBALPBandit, "allocation", checked)
        system = build_crowdlearn(setup, config=config)
        outcome = system.run(setup.make_stream("crowdlearn"))
    return outcome, calls


def test_budget_binds_and_some_row_is_mixed(binding_run):
    outcome, calls = binding_run
    assert len(calls) == 16
    assert outcome.total_cost_cents() == pytest.approx(60.0)
    mixed = [
        a for a, _, _ in calls if ((a > 1e-9) & (a < 1.0 - 1e-9)).any()
    ]
    assert mixed


def test_every_allocation_matches_highs(binding_run):
    _, calls = binding_run
    for allocation, reference, _ in calls:
        np.testing.assert_allclose(allocation, reference, rtol=0, atol=1e-9)


def test_every_row_draws_the_highs_arm(binding_run):
    _, calls = binding_run
    for allocation, reference, rng in calls:
        n_arms = allocation.shape[1]
        for row, ref_row in zip(allocation, reference):
            drawn = copy.deepcopy(rng).choice(n_arms, p=row)
            expected = copy.deepcopy(rng).choice(n_arms, p=ref_row)
            assert drawn == expected


def test_run_digest_is_pinned(binding_run, golden):
    outcome, _ = binding_run
    golden("seed0", {"digest": run_outcome_digest(outcome)})
