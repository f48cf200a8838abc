"""Bandit substrate: constrained contextual MAB and baseline policies."""

from repro.bandit.base import ArmStats, ContextualPolicy
from repro.bandit.budget import BudgetExhausted, BudgetLedger
from repro.bandit.ccmb import UCBALPBandit
from repro.bandit.epsilon import EpsilonGreedyBandit
from repro.bandit.policies import FixedIncentivePolicy, RandomIncentivePolicy

__all__ = [
    "ArmStats",
    "ContextualPolicy",
    "BudgetExhausted",
    "BudgetLedger",
    "UCBALPBandit",
    "EpsilonGreedyBandit",
    "FixedIncentivePolicy",
    "RandomIncentivePolicy",
]
