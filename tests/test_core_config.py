"""Tests for repro.core.config."""

import dataclasses

import pytest

from repro.core.config import CrowdLearnConfig
from repro.core.guards import GuardPolicy
from repro.utils.clock import TemporalContext


class TestDefaults:
    def test_paper_deployment_structure(self):
        config = CrowdLearnConfig()
        assert config.n_cycles == 40
        assert config.images_per_cycle == 10
        assert config.cycles_per_context == 10
        assert config.queries_per_cycle == 5
        assert config.total_queries == 200

    def test_budget_conversion(self):
        config = CrowdLearnConfig(budget_usd=16.0)
        assert config.budget_cents == 1600.0

    def test_frozen(self):
        config = CrowdLearnConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.n_cycles = 5


class TestQueriesPerContext:
    def test_even_split(self):
        config = CrowdLearnConfig()
        counts = config.queries_per_context()
        assert all(v == 50 for v in counts.values())
        assert sum(counts.values()) == 200

    def test_wrapping_blocks(self):
        config = CrowdLearnConfig(
            n_cycles=10, cycles_per_context=2, images_per_cycle=4,
            query_fraction=0.5,
        )
        counts = config.queries_per_context()
        # Blocks: M, A, E, Mi, M again -> morning gets 4 cycles x 2 queries.
        assert counts[TemporalContext.MORNING] == 8
        assert counts[TemporalContext.AFTERNOON] == 4

    def test_zero_fraction(self):
        config = CrowdLearnConfig(query_fraction=0.0)
        assert config.queries_per_cycle == 0
        assert all(v == 0 for v in config.queries_per_context().values())


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_cycles=0),
            dict(images_per_cycle=0),
            dict(cycles_per_context=0),
            dict(query_fraction=1.5),
            dict(qss_epsilon=-0.1),
            dict(workers_per_query=0),
            dict(n_workers=0),
            dict(incentive_levels=()),
            dict(incentive_levels=(1.0, -2.0)),
            dict(budget_usd=0.0),
            dict(cycle_seconds=0.0),
            dict(straggler_policy="late"),
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            CrowdLearnConfig(**kwargs)

    def test_query_fraction_rounding(self):
        config = CrowdLearnConfig(images_per_cycle=10, query_fraction=0.25)
        assert config.queries_per_cycle == 2  # round(2.5) banker's -> 2


class TestGuardPolicyKnobs:
    """Guard settings live on GuardPolicy alone; the config carries none.

    ``CrowdLearnSystem.build(guards=None)`` uses ``GuardPolicy()``, which
    keeps the defaults the config's guard fields had.
    """

    def test_default_policy_is_enabled(self):
        policy = GuardPolicy()
        assert policy.enabled
        assert policy.holdout_size == 24
        assert policy.regression_tolerance == 0.25

    def test_knobs_flow_into_the_policy(self):
        field_names = {f.name for f in dataclasses.fields(CrowdLearnConfig)}
        assert not any(name.startswith("guard") for name in field_names)
        policy = GuardPolicy(holdout_size=12, regression_tolerance=0.5)
        assert policy.holdout_size == 12
        assert policy.regression_tolerance == 0.5

    def test_disabled_flag_gives_disabled_policy(self):
        assert not GuardPolicy.disabled().enabled
