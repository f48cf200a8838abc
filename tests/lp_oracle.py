"""Test-only oracle: UCB-ALP's adaptive LP solved by scipy's HiGHS.

``UCBALPBandit.allocation`` solves its LP in closed form.  The tests
compare it with this general-purpose solve of the same program,

    max   Σ_z p_z Σ_k x_{z,k} · u_{z,k}
    s.t.  Σ_z p_z Σ_k x_{z,k} · c_k ≤ ρ,   Σ_k x_{z,k} = 1  ∀z,
          0 ≤ x ≤ 1,

post-processed exactly as the bandit does (clip at 0, renormalise rows).
scipy is a development dependency only; the runtime never imports it.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def highs_allocation(
    indices: np.ndarray, costs: np.ndarray, p: np.ndarray, rho: float
) -> np.ndarray:
    """The LP's optimal allocation, shape ``indices.shape``, from HiGHS.

    ``p`` must already be normalised and ``rho`` at least the cheapest
    cost (the bandit handles the other cases before solving).
    """
    n_z, n_k = indices.shape
    a_eq = np.zeros((n_z, n_z * n_k))
    for z in range(n_z):
        a_eq[z, z * n_k : (z + 1) * n_k] = 1.0
    result = linprog(
        -(p[:, None] * indices).ravel(),
        A_ub=(p[:, None] * costs[None, :]).ravel()[None, :],
        b_ub=np.array([rho]),
        A_eq=a_eq,
        b_eq=np.ones(n_z),
        bounds=(0.0, 1.0),
        method="highs",
    )
    assert result.success, result.message
    allocation = np.clip(result.x.reshape(n_z, n_k), 0.0, None)
    row_sums = allocation.sum(axis=1, keepdims=True)
    return allocation / np.where(row_sums > 0, row_sums, 1.0)


def objective(allocation: np.ndarray, indices: np.ndarray, p: np.ndarray) -> float:
    """Expected UCB payoff of an allocation."""
    return float(p @ (allocation * indices).sum(axis=1))


def expected_spend(allocation: np.ndarray, costs: np.ndarray, p: np.ndarray) -> float:
    """Expected per-round spend of an allocation."""
    return float(p @ (allocation @ costs))
