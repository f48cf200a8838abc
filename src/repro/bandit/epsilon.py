"""ε-greedy contextual bandit (ablation baseline for the IPD learner)."""

from __future__ import annotations

import numpy as np

from repro.bandit.base import ContextualPolicy
from repro.utils.validation import check_probability

__all__ = ["EpsilonGreedyBandit"]


class EpsilonGreedyBandit(ContextualPolicy):
    """Plays the empirically best affordable arm w.p. 1-ε, else a random one.

    Parameters
    ----------
    epsilon:
        Exploration probability.
    rng:
        Randomness source for exploration draws.
    contextual:
        When False, statistics are pooled across contexts — the
        "context-free bandit" ablation showing why IPD needs contexts.
    """

    def __init__(
        self,
        n_contexts: int,
        arms: tuple[float, ...],
        rng: np.random.Generator,
        epsilon: float = 0.1,
        contextual: bool = True,
    ) -> None:
        super().__init__(n_contexts, arms)
        check_probability(epsilon, "epsilon")
        self.epsilon = epsilon
        self.rng = rng
        self.contextual = contextual

    def _effective_context(self, context: int) -> int:
        return context if self.contextual else 0

    def update(self, context: int, arm: int, payoff: float) -> None:
        super().update(self._effective_context(context), arm, payoff)

    def select(
        self,
        context: int,
        budget_per_round: float | None = None,
        context_distribution: object = None,
    ) -> int:
        del context_distribution  # unconstrained across contexts
        self._check_indices(context, 0)
        context = self._effective_context(context)
        costs = np.array(self.arms)
        if budget_per_round is None:
            affordable = np.arange(len(self.arms))
        else:
            mask = costs <= max(budget_per_round, 0.0) + 1e-9
            if not mask.any():
                mask[int(np.argmin(costs))] = True
            affordable = np.flatnonzero(mask)
        if self.rng.random() < self.epsilon:
            return int(self.rng.choice(affordable))
        pulls = self.pull_counts(context)[affordable]
        unpulled = affordable[pulls == 0]
        if unpulled.size:
            return int(unpulled[0])
        means = self.mean_payoffs(context)[affordable]
        return int(affordable[np.argmax(means)])
