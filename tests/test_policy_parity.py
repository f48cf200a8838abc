"""Pins guard and resilience outcomes on fast seeds 0 and 1.

Five arms cover every setting of the guard and resilience policies that a
deployment uses: the defaults, the hardened guards under hostile labels,
guards off, the default resilience under outages and abandonment (so
retries, drops, refunds and fallbacks all happen), and the naive
resilience on a fault-free platform.  Each arm's ``run_outcome_digest``,
its summed ``GuardCounters``/``ResilienceCounters`` and its macro-F1 are
compared exactly with ``tests/golden/policy.json``, so a refactor of
either policy must leave every one of them unchanged.
"""

import pytest

from repro.core.guards import GuardPolicy
from repro.core.resilience import ResiliencePolicy
from repro.crowd.faults import FaultInjector, FaultPlan
from repro.eval.experiments import adversarial_label_plan
from repro.eval.persistence import run_outcome_digest
from repro.eval.runner import build_crowdlearn, prepare
from repro.metrics import macro_f1

from tests.golden import Family

#: Posts 2-7 hit an outage: two queries exhaust their retries and drop.
#: Heavy abandonment leaves some charged queries with no response at all.
OUTAGE_PLAN = FaultPlan(abandonment_rate=0.8, outage_windows=((2, 8),))

ARMS = ("default", "hardened-hostile", "guards-off", "outage", "naive")

SEEDS = (0, 1)

#: Per seed and arm: the run digest, the summed guard and resilience
#: counters (non-zero fields only) and the run's macro-F1.
GOLDEN = Family(
    "policy", [f"seed{seed}/{arm}" for seed in SEEDS for arm in ARMS]
)


def pinned_outcome(outcome) -> dict:
    """What the golden file holds for one arm's run."""
    def nonzero(counters):
        return {name: v for name, v in counters.as_dict().items() if v}

    return {
        "digest": run_outcome_digest(outcome),
        "guards": nonzero(outcome.guard_totals()),
        "resilience": nonzero(outcome.resilience_totals()),
        "macro_f1": macro_f1(outcome.y_true(), outcome.y_pred()),
    }


def run_arm(setup, arm: str):
    name = f"policy-{arm}"
    kwargs = {}
    if arm == "hardened-hostile":
        kwargs["faults"] = FaultInjector(
            adversarial_label_plan(), rng=setup.seeds.get(f"{name}-faults")
        )
        kwargs["guards"] = GuardPolicy.hardened()
    elif arm == "guards-off":
        kwargs["guards"] = GuardPolicy.disabled()
    elif arm == "outage":
        kwargs["faults"] = FaultInjector(
            OUTAGE_PLAN, rng=setup.seeds.get(f"{name}-faults")
        )
    elif arm == "naive":
        kwargs["resilience"] = ResiliencePolicy.naive()
    system = build_crowdlearn(setup, platform_name=name, **kwargs)
    return system.run(setup.make_stream(name))


@pytest.fixture(
    scope="module", params=SEEDS, ids=[f"seed{seed}" for seed in SEEDS]
)
def seeded(request):
    setup = prepare(seed=request.param, fast=True)
    return request.param, {arm: run_arm(setup, arm) for arm in ARMS}


@pytest.mark.parametrize("arm", ARMS)
def test_arm_matches_pinned_outcome(seeded, arm, golden):
    seed, outcomes = seeded
    golden(f"seed{seed}/{arm}", pinned_outcome(outcomes[arm]))


def test_outage_arm_exercises_every_resilience_path(seeded):
    totals = seeded[1]["outage"].resilience_totals()
    assert totals.retries > 0
    assert totals.dropped_queries > 0
    assert totals.refunds > 0
    assert totals.fallbacks > 0


def test_hostile_arm_exercises_the_guards(seeded):
    totals = seeded[1]["hardened-hostile"].guard_totals()
    assert totals.any()
    assert seeded[1]["guards-off"].guard_totals().snapshots == 0
