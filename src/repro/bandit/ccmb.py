"""Constrained contextual multi-armed bandit (UCB-ALP, Wu et al. [40]).

The paper's IPD learner (§IV-B.2).  Per (context, arm) UCB indices estimate
the expected payoff (negative normalized delay); an **adaptive linear
program** relaxes the budget constraint: given the average remaining budget
per remaining round ρ and the context occupancy distribution, solve

    max   Σ_z P(z) Σ_k x_{z,k} · u_{z,k}
    s.t.  Σ_z P(z) Σ_k x_{z,k} · c_k ≤ ρ,   Σ_k x_{z,k} = 1  ∀z,
          0 ≤ x ≤ 1,

and play an arm drawn from x[current context].  The LP is what moves spend
*across* contexts: it buys expensive arms where they pay (morning) and cheap
arms where delay is flat anyway (evening/midnight) — the behaviour Figure 8
credits IPD with.

The LP is solved exactly in closed form.  Apart from the per-context
simplex rows it has a single coupling row, the budget, which makes it a
fractional multiple-choice knapsack.  In one context, only arms on the upper
concave hull of (cost c_k, index u_{z,k}) can be optimal, and moving from one
hull arm to the next buys P(z)·Δu of objective for P(z)·Δc of budget, at the
segment's slope Δu/Δc.  The hull's slopes decrease, so the greedy is exact:

1. every context starts at its cheapest hull arm (the budget check before
   the solve guarantees ρ covers it);
2. all hull segments with a positive slope, across contexts, are applied
   in descending slope order, each spending P(z)·Δc of what ρ leaves;
3. the first segment that no longer fits is taken fractionally, and the
   greedy stops.

This is the LP optimum at a vertex: at most one context mixes two adjacent
hull arms, every other context plays one arm.  Where the optimum is not
unique, a fixed tie rule picks it.  A zero-slope segment is not an upgrade.
Among segments of equal slope, the one whose upper arm is cheaper goes
first, then the one with the lower arm index, then the lower context index.
A context with zero occupancy costs and earns nothing, so it stays at its
cheapest hull arm.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bandit.base import ContextualPolicy

__all__ = ["UCBALPBandit"]


class UCBALPBandit(ContextualPolicy):
    """UCB-ALP constrained contextual bandit.

    Parameters
    ----------
    n_contexts, arms:
        See :class:`~repro.bandit.base.ContextualPolicy`.
    exploration:
        Multiplier on the UCB confidence radius.  The default (0.3) is
        tuned for warm-started deployments like IPD, where the pilot study
        already gives every (context, arm) cell ~20 observations and the
        run itself is short (200 queries); a full-width radius would swamp
        the real payoff gaps and keep the policy exploring forever.
    context_distribution:
        Occupancy probability of each context (uniform when omitted; the
        paper's deployment spends exactly 1/4 of its cycles per context).
    rng:
        Randomness for sampling from the LP's mixed strategies; a
        deterministic argmax is used when omitted.
    """

    def __init__(
        self,
        n_contexts: int,
        arms: tuple[float, ...],
        exploration: float = 0.3,
        context_distribution: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(n_contexts, arms)
        if exploration < 0:
            raise ValueError(f"exploration must be >= 0, got {exploration}")
        if context_distribution is None:
            context_distribution = np.full(n_contexts, 1.0 / n_contexts)
        context_distribution = np.asarray(context_distribution, dtype=np.float64)
        if context_distribution.shape != (n_contexts,):
            raise ValueError(
                f"context_distribution must have shape ({n_contexts},)"
            )
        if np.any(context_distribution < 0) or context_distribution.sum() <= 0:
            raise ValueError("context_distribution must be a distribution")
        self.context_distribution = context_distribution / context_distribution.sum()
        self.exploration = exploration
        self.rng = rng

    def ucb_indices(self, context: int) -> np.ndarray:
        """UCB index of every arm in ``context`` (inf for unpulled arms).

        ``log t`` is taken once per call, with ``np.log``; the radii use
        ``math.sqrt``, which like ``np.sqrt`` is correctly rounded, so the
        indices are the bytes a per-arm numpy computation gives.
        """
        self._check_indices(context, 0)
        indices = np.empty(len(self.arms))
        two_log_total = 2.0 * float(np.log(max(self.t, 1)))
        for arm, stats in enumerate(self.stats[context]):
            if stats.pulls == 0:
                indices[arm] = np.inf
            else:
                radius = self.exploration * math.sqrt(
                    two_log_total / stats.pulls
                )
                indices[arm] = stats.mean_payoff + radius
        return indices

    def _bounded_indices(self) -> np.ndarray:
        """All (context, arm) UCB indices with infinities made optimistic."""
        table = np.stack(
            [self.ucb_indices(z) for z in range(self.n_contexts)]
        )
        finite = table[np.isfinite(table)]
        ceiling = float(finite.max()) + 1.0 if finite.size else 1.0
        return np.where(np.isfinite(table), table, ceiling)

    def allocation(
        self,
        budget_per_round: float | None,
        context_distribution: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve the adaptive LP; returns per-context arm probabilities.

        Shape ``(n_contexts, n_arms)``; each row sums to 1.  With no budget
        signal the LP constraint is dropped and each context plays its
        UCB-best arm.  ``context_distribution`` overrides the static prior
        with the occupancy of the *remaining* rounds — in blocked deployments
        (10 consecutive cycles per context) this is what stops the LP from
        assuming already-finished contexts will come around again.  A NaN or
        infinite ``budget_per_round`` or ``context_distribution`` entry
        raises ``ValueError``.
        """
        if budget_per_round is not None and not np.isfinite(budget_per_round):
            raise ValueError(
                f"budget_per_round must be finite, got {budget_per_round}"
            )
        indices = self._bounded_indices()
        n_z = indices.shape[0]
        if budget_per_round is None:
            allocation = np.zeros_like(indices)
            allocation[np.arange(n_z), np.argmax(indices, axis=1)] = 1.0
            return allocation

        if context_distribution is None:
            p = self.context_distribution
        else:
            p = np.asarray(context_distribution, dtype=np.float64)
            if not np.all(np.isfinite(p)):
                raise ValueError(
                    f"context_distribution must be finite, got {p}"
                )
            if p.shape != (n_z,) or np.any(p < 0) or p.sum() <= 0:
                raise ValueError(
                    "context_distribution must be a distribution over contexts"
                )
            p = p / p.sum()
        costs = np.array(self.arms)
        rho = max(budget_per_round, 0.0)
        if rho < costs.min():
            # Even the cheapest arm exceeds the pace: play it anyway (the
            # ledger is the hard stop, the LP only paces).
            allocation = np.zeros_like(indices)
            allocation[:, int(np.argmin(costs))] = 1.0
            return allocation

        allocation = np.clip(_solve_alp(indices, costs, p, rho), 0.0, None)
        row_sums = allocation.sum(axis=1, keepdims=True)
        return allocation / np.where(row_sums > 0, row_sums, 1.0)

    def select(
        self,
        context: int,
        budget_per_round: float | None = None,
        context_distribution: np.ndarray | None = None,
    ) -> int:
        """Draw an arm from the LP allocation for ``context``.

        With an ``rng``, samples the mixed strategy (the faithful UCB-ALP
        behaviour); otherwise plays its argmax deterministically.
        """
        self._check_indices(context, 0)
        probs = self.allocation(budget_per_round, context_distribution)[context]
        if self.rng is not None:
            return int(self.rng.choice(len(self.arms), p=probs))
        return int(np.argmax(probs))

    def greedy_arm(self, context: int) -> int:
        """The arm with the best empirical mean (no exploration bonus)."""
        means = self.mean_payoffs(context)
        return int(np.argmax(means))


def _hull_segments(
    costs: list[float], values: list[float]
) -> tuple[int, list[tuple[float, int, int]]]:
    """The upper concave hull of one context's (cost, UCB index) points.

    Returns the cheapest hull arm and the hull's positive-slope segments
    as ``(slope, lower arm, upper arm)``, cheapest first, so their slopes
    never increase.  Among arms of equal cost only the best-valued one
    (then the lowest index) is a hull candidate; collinear arms stay on
    the hull, so equal-slope upgrades pass through the cheaper arm.
    """
    order = sorted(range(len(costs)), key=lambda k: (costs[k], -values[k], k))
    candidates = order[:1] + [
        b for a, b in zip(order, order[1:]) if costs[b] != costs[a]
    ]

    def slope(lower: int, upper: int) -> float:
        return (values[upper] - values[lower]) / (costs[upper] - costs[lower])

    hull: list[int] = []
    for arm in candidates:
        while len(hull) >= 2 and slope(hull[-2], hull[-1]) < slope(hull[-1], arm):
            hull.pop()
        hull.append(arm)
    segments = []
    for lower, upper in zip(hull, hull[1:]):
        gain = slope(lower, upper)
        if gain <= 0:
            break  # the hull only falls from here: no upgrade pays
        segments.append((gain, lower, upper))
    return hull[0], segments


def _solve_alp(
    indices: np.ndarray, costs: np.ndarray, p: np.ndarray, rho: float
) -> np.ndarray:
    """The adaptive LP's optimal allocation by the hull greedy (see above).

    ``p`` is normalised and ``rho`` covers the cheapest arm.
    """
    n_z = indices.shape[0]
    cost_of = costs.tolist()
    arm_of = np.empty(n_z, dtype=np.intp)
    upgrades = []
    for z, values in enumerate(indices.tolist()):
        arm_of[z], segments = _hull_segments(cost_of, values)
        if p[z] > 0:
            upgrades.extend(
                (-gain, cost_of[upper], upper, z, lower)
                for gain, lower, upper in segments
            )
    left = rho - float(p @ costs[arm_of])
    mixed = None
    for _, _, upper, z, lower in sorted(upgrades):
        step = float(p[z]) * (cost_of[upper] - cost_of[lower])
        if step > left:
            mixed = z, lower, upper, max(left, 0.0) / step
            break
        arm_of[z] = upper
        left -= step
    allocation = np.zeros_like(indices)
    allocation[np.arange(n_z), arm_of] = 1.0
    if mixed is not None:
        z, lower, upper, theta = mixed
        allocation[z, lower] = 1.0 - theta
        allocation[z, upper] = theta
    return allocation
