"""Pins guard and resilience outcomes on fast seeds 0 and 1.

Five arms cover every setting of the guard and resilience policies that a
deployment uses: the defaults, the hardened guards under hostile labels,
guards off, the default resilience under outages and abandonment (so
retries, drops, refunds and fallbacks all happen), and the naive
resilience on a fault-free platform.  Each arm's ``run_outcome_digest``
and its summed ``GuardCounters``/``ResilienceCounters`` are compared with
literal values, so a refactor of either policy must leave every one of
them unchanged.
"""

import pytest

from repro.core.guards import GuardCounters, GuardPolicy
from repro.core.resilience import ResilienceCounters, ResiliencePolicy
from repro.crowd.faults import FaultInjector, FaultPlan
from repro.eval.experiments import adversarial_label_plan
from repro.eval.persistence import run_outcome_digest
from repro.eval.runner import build_crowdlearn, prepare

#: Posts 2-7 hit an outage: two queries exhaust their retries and drop.
#: Heavy abandonment leaves some charged queries with no response at all.
OUTAGE_PLAN = FaultPlan(abandonment_rate=0.8, outage_windows=((2, 8),))

ARMS = ("default", "hardened-hostile", "guards-off", "outage", "naive")

#: seed -> arm -> (run digest, summed guard counters, summed resilience
#: counters).
EXPECTED = {
    0: {
        "default": (
            "fad06bf6b08380534e69e156fc10abb6c2b73f9011b5542501c5b34e1063608e",
            GuardCounters(snapshots=24),
            ResilienceCounters(),
        ),
        "hardened-hostile": (
            "d4db988b5a4b4ffe60499a42a191c464e569467ccfddf584f2b75d78cef9ef97",
            GuardCounters(
                snapshots=18, drift_flags=2, retrains_skipped=2,
                reweights_skipped=2, offloads_skipped=2,
            ),
            ResilienceCounters(),
        ),
        "guards-off": (
            "fb4254a30e2f4e1a47d62ba928c341661cf9aa6499b77d53da0355d220dcbf2f",
            GuardCounters(),
            ResilienceCounters(),
        ),
        "outage": (
            "5d3235801fa9e6b30e366f3eaae834eefd5bc8867b6556e9d4af31ab92fd8e14",
            GuardCounters(snapshots=21),
            ResilienceCounters(
                retries=4, backoff_seconds=180.0, refunds=2,
                refunded_cents=28.0, fallbacks=2, dropped_queries=2,
                outages_hit=6,
            ),
        ),
        "naive": (
            "8ccf565d1e2b917e2ed099fbbfcc28baba24c66b5e7d508af491361d70547537",
            GuardCounters(snapshots=24),
            ResilienceCounters(),
        ),
    },
    1: {
        "default": (
            "6c13fe23ec7ee8bee051b1069bbc37e64020258269bbd7eac1f867fa89cc1cff",
            GuardCounters(
                snapshots=15, drift_flags=3, retrains_skipped=3,
                reweights_skipped=3, offloads_skipped=3,
            ),
            ResilienceCounters(),
        ),
        "hardened-hostile": (
            "f82d343a6e73c9f5af14e0ceb444165d67bbd00f6d3bb78f97ad8d1b28a6bbf8",
            GuardCounters(
                snapshots=15, rollbacks=6, drift_flags=3, retrains_skipped=3,
                reweights_skipped=3, offloads_skipped=3,
            ),
            ResilienceCounters(),
        ),
        "guards-off": (
            "287cd1b97e6d28ce47c06ca7312987284a22cdc723ee48c088c8eb6a79e16994",
            GuardCounters(),
            ResilienceCounters(),
        ),
        "outage": (
            "0863932a4a9a1bcf29746e6d698bc75cb4de74a489e8776f3bf527dcaae37558",
            GuardCounters(snapshots=15),
            ResilienceCounters(
                retries=4, backoff_seconds=180.0, refunds=6,
                refunded_cents=106.0, fallbacks=6, dropped_queries=2,
                outages_hit=6,
            ),
        ),
        "naive": (
            "d522775f27c73f7ddd56a522e2657f7e26777f10da1f253d93132fe296498cd1",
            GuardCounters(snapshots=24),
            ResilienceCounters(),
        ),
    },
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


@pytest.fixture(scope="module", params=[0, 1], ids=["seed0", "seed1"])
def seeded(request):
    setup = prepare(seed=request.param, fast=True)
    return request.param, {arm: run_arm(setup, arm) for arm in ARMS}


@pytest.mark.parametrize("arm", ARMS)
def test_arm_matches_pinned_outcome(seeded, arm):
    seed, outcomes = seeded
    outcome = outcomes[arm]
    digest, guards, resilience = EXPECTED[seed][arm]
    assert run_outcome_digest(outcome) == digest
    assert outcome.guard_totals() == guards
    assert outcome.resilience_totals() == resilience


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
