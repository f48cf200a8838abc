"""Incentive Policy Design (§IV-B).

IPD prices each crowd query.  The decision problem is the constrained
contextual multi-armed bandit of Eq. 4: contexts are the four times of day,
arms are the incentive levels, the payoff is the negative (normalized)
response delay, and total spending must respect the budget B.  IPD wraps a
:class:`~repro.bandit.base.ContextualPolicy` (UCB-ALP by default), handles
the delay→payoff mapping, paces the budget over the remaining queries, and
can warm-start its payoff estimates from the pilot study — the paper trains
IPD on the training set before deployment.
"""

from __future__ import annotations

import numpy as np

from repro.bandit.base import ContextualPolicy
from repro.bandit.budget import BudgetLedger
from repro.bandit.ccmb import UCBALPBandit
from repro.crowd.pilot import PilotResult
from repro.utils.clock import TemporalContext

__all__ = ["IncentivePolicyDesigner"]

#: Delay normalization: one sensing cycle (600 s) maps to payoff -1.
_DELAY_SCALE = 600.0


class IncentivePolicyDesigner:
    """Prices crowd queries with a budget-constrained contextual bandit.

    Parameters
    ----------
    arms:
        Incentive levels in cents.
    ledger:
        The shared budget ledger (total budget B).
    policy:
        The bandit; a fresh :class:`UCBALPBandit` over the four temporal
        contexts when omitted.
    total_queries:
        Expected number of queries over the whole deployment, used to pace
        the budget (remaining budget / remaining queries).
    queries_per_context:
        Expected queries in each temporal context.  The deployment visits
        contexts in consecutive blocks, so the LP must plan against the
        *remaining* context mix, not a uniform one — otherwise it budgets
        for morning spending that will never recur.  Uniform when omitted.
    """

    def __init__(
        self,
        arms: tuple[float, ...],
        ledger: BudgetLedger,
        total_queries: int,
        policy: ContextualPolicy | None = None,
        rng: np.random.Generator | None = None,
        queries_per_context: dict[TemporalContext, int] | None = None,
    ) -> None:
        if total_queries <= 0:
            raise ValueError(f"total_queries must be positive, got {total_queries}")
        if policy is None:
            policy = UCBALPBandit(
                len(TemporalContext.ordered()), arms, rng=rng
            )
        if policy.arms != tuple(float(a) for a in arms):
            raise ValueError("policy arms must match the provided arms")
        self.policy = policy
        self.ledger = ledger
        self.total_queries = total_queries
        self.queries_priced = 0
        if queries_per_context is None:
            share = total_queries / len(TemporalContext.ordered())
            queries_per_context = {
                context: share for context in TemporalContext.ordered()
            }
        self._remaining_per_context = {
            context: float(queries_per_context.get(context, 0.0))
            for context in TemporalContext.ordered()
        }

    @staticmethod
    def delay_to_payoff(delay_seconds: float) -> float:
        """Definition 12: payoff is the additive inverse of the delay."""
        if delay_seconds < 0:
            raise ValueError(f"delay must be >= 0, got {delay_seconds}")
        return -delay_seconds / _DELAY_SCALE

    def budget_per_query(self) -> float:
        """Average remaining budget per remaining query (ALP pacing signal)."""
        remaining_queries = max(self.total_queries - self.queries_priced, 1)
        return self.ledger.remaining / remaining_queries

    def remaining_context_distribution(self) -> np.ndarray:
        """Occupancy of each context over the remaining queries."""
        remaining = np.array(
            [
                self._remaining_per_context[c]
                for c in TemporalContext.ordered()
            ]
        )
        total = remaining.sum()
        if total <= 0:
            return np.full(len(remaining), 1.0 / len(remaining))
        return remaining / total

    def price_query(self, context: TemporalContext) -> tuple[int, float]:
        """Choose the incentive for one query.

        Returns ``(arm index, incentive in cents)``.  The caller charges the
        ledger when it actually posts the query.
        """
        arm = self.policy.select(
            context.index,
            self.budget_per_query(),
            context_distribution=self.remaining_context_distribution(),
        )
        self.queries_priced += 1
        self._remaining_per_context[context] = max(
            0.0, self._remaining_per_context[context] - 1.0
        )
        return arm, self.policy.arms[arm]

    def observe(
        self, context: TemporalContext, arm: int, delay_seconds: float
    ) -> None:
        """Feed back a realized query delay for the pulled arm."""
        self.policy.update(context.index, arm, self.delay_to_payoff(delay_seconds))

    def warm_start(self, pilot: PilotResult) -> None:
        """Seed the bandit's payoff estimates from pilot-study observations.

        Each pilot query contributes one (context, arm, payoff) observation,
        exactly as if the bandit had made those pulls itself.
        """
        arm_of_level = {level: i for i, level in enumerate(self.policy.arms)}
        for (context, level), cell in pilot.cells.items():
            arm = arm_of_level.get(float(level))
            if arm is None:
                continue  # pilot probed a level outside this policy's arms
            for result in cell.results:
                self.policy.update(
                    context.index, arm, self.delay_to_payoff(result.mean_delay)
                )
