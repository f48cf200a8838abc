"""Experiment orchestration shared by all table/figure drivers.

:func:`prepare` builds the whole evaluation world once — dataset, split,
trained committee, worker population, pilot study — and the per-experiment
drivers then derive schemes, streams and platforms from it.  Everything is
seeded through one :class:`~repro.utils.rng.SeedSequencer`, so a driver is
reproducible from ``(seed, config)`` alone.

``fast=True`` shrinks the dataset, stream and models by roughly an order of
magnitude; it exists for the test suite and for smoke-running the benchmark
drivers, and is *not* used for the recorded EXPERIMENTS.md numbers.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.core.committee import Committee
from repro.core.config import CrowdLearnConfig
from repro.core.guards import GuardPolicy, ModelGuard
from repro.core.resilience import ResiliencePolicy
from repro.core.system import CrowdLearnSystem, RunOutcome
from repro.crowd.delay import DelayModel
from repro.crowd.faults import FaultInjector
from repro.crowd.pilot import PilotResult, run_pilot_study
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.population import WorkerPopulation
from repro.crowd.quality import QualityModel
from repro.data.dataset import DisasterDataset, build_dataset, train_test_split
from repro.data.stream import SensingCycleStream
from repro.eval.baselines import (
    AIOnlyScheme,
    EnsembleScheme,
    HybridALScheme,
    HybridParaScheme,
    SchemeResult,
)
from repro.models.registry import create_model, default_committee_names
from repro.telemetry.runtime import Telemetry
from repro.utils.rng import SeedSequencer

__all__ = ["ExperimentSetup", "prepare", "fast_config", "run_all_schemes"]

#: Model-constructor overrides used in fast mode (smaller, fewer epochs).
_FAST_MODEL_KWARGS: dict[str, dict] = {
    "VGG16": {"epochs": 3, "width": 4},
    "BoVW": {"epochs": 8, "vocabulary_size": 8},
    "DDM": {"epochs": 3, "width": 4, "head_epochs": 10},
}


def fast_config() -> CrowdLearnConfig:
    """A miniature deployment for tests and smoke runs."""
    return CrowdLearnConfig(
        n_cycles=8,
        images_per_cycle=5,
        cycles_per_context=2,
        budget_usd=4.0,
        pilot_queries_per_cell=4,
        n_workers=40,
        mic_replay_size=10,
    )


@dataclass
class ExperimentSetup:
    """The shared evaluation world for one (seed, config) pair."""

    config: CrowdLearnConfig
    seed: int
    seeds: SeedSequencer
    train_set: DisasterDataset
    test_set: DisasterDataset
    base_committee: Committee
    population: WorkerPopulation
    pilot: PilotResult
    fast: bool

    def make_platform(self, name: str) -> CrowdsourcingPlatform:
        """A fresh platform sharing the worker population (per-scheme RNG)."""
        return CrowdsourcingPlatform(
            population=self.population,
            delay_model=DelayModel(),
            quality_model=QualityModel(),
            rng=self.seeds.get(f"platform-{name}"),
            workers_per_query=self.config.workers_per_query,
        )

    def make_stream(self, name: str = "stream") -> SensingCycleStream:
        """A sensing-cycle stream over the test set (per-use RNG)."""
        return SensingCycleStream(
            self.test_set,
            n_cycles=self.config.n_cycles,
            images_per_cycle=self.config.images_per_cycle,
            cycles_per_context=self.config.cycles_per_context,
            rng=self.seeds.get(f"stream-{name}"),
        )

    def clone_committee(self) -> Committee:
        """An independent deep copy of the trained committee.

        Schemes that mutate their models (CrowdLearn, Hybrid-AL) each get
        their own copy so runs do not contaminate one another.
        """
        return copy.deepcopy(self.base_committee)

    def fixed_incentive_cents(self) -> float:
        """The fixed baselines' incentive: total budget / total queries."""
        return self.config.budget_cents / max(self.config.total_queries, 1)


def prepare(
    seed: int = 0,
    config: CrowdLearnConfig | None = None,
    fast: bool = False,
    n_images: int = 960,
    n_train: int = 560,
) -> ExperimentSetup:
    """Build the shared evaluation world.

    Parameters
    ----------
    seed:
        Root seed; every stochastic component derives from it by name.
    config:
        Deployment configuration; the paper's defaults when omitted
        (or :func:`fast_config` when ``fast`` is set).
    fast:
        Shrink dataset/stream/models for tests and smoke runs.
    n_images, n_train:
        Dataset size and split (paper: 960 / 560); overridden in fast mode.
    """
    if config is None:
        config = fast_config() if fast else CrowdLearnConfig()
    if fast:
        n_images, n_train = 180, 120
    required = config.n_cycles * config.images_per_cycle
    if n_images - n_train < required:
        raise ValueError(
            f"test split ({n_images - n_train}) cannot feed "
            f"{config.n_cycles}x{config.images_per_cycle} cycles"
        )
    seeds = SeedSequencer(seed)
    dataset = build_dataset(n_images=n_images, rng=seeds.get("dataset"))
    train_set, test_set = train_test_split(
        dataset, n_train=n_train, rng=seeds.get("split")
    )
    model_kwargs = _FAST_MODEL_KWARGS if fast else {}
    experts = [
        create_model(name, **model_kwargs.get(name, {}))
        for name in default_committee_names()
    ]
    committee = Committee(experts).fit(train_set, seeds.get("committee"))
    population = WorkerPopulation(config.n_workers, seeds.get("population"))
    pilot_platform = CrowdsourcingPlatform(
        population=population,
        delay_model=DelayModel(),
        quality_model=QualityModel(),
        rng=seeds.get("pilot-platform"),
        workers_per_query=config.workers_per_query,
    )
    pilot = run_pilot_study(
        pilot_platform,
        train_set,
        seeds.get("pilot"),
        incentive_levels=config.incentive_levels,
        queries_per_cell=config.pilot_queries_per_cell,
    )
    return ExperimentSetup(
        config=config,
        seed=seed,
        seeds=seeds,
        train_set=train_set,
        test_set=test_set,
        base_committee=committee,
        population=population,
        pilot=pilot,
        fast=fast,
    )


def scheme_result_from_run(name: str, outcome: RunOutcome) -> SchemeResult:
    """Convert a CrowdLearn :class:`RunOutcome` into a :class:`SchemeResult`."""
    delays = [c.crowd_delay for c in outcome.cycles if c.query_indices.size]
    contexts = [c.context for c in outcome.cycles if c.query_indices.size]
    return SchemeResult(
        name=name,
        y_true=outcome.y_true(),
        y_pred=outcome.y_pred(),
        scores=outcome.scores(),
        crowd_delays=delays,
        crowd_delay_contexts=contexts,
        cost_cents=outcome.total_cost_cents(),
    )


def build_crowdlearn(
    setup: ExperimentSetup,
    config: CrowdLearnConfig | None = None,
    resilience: ResiliencePolicy | None = None,
    faults: FaultInjector | None = None,
    platform_name: str = "crowdlearn",
    guards: "ModelGuard | GuardPolicy | None" = None,
    telemetry: "Telemetry | None" = None,
    seed: int | None = None,
    event_id: str | None = None,
) -> CrowdLearnSystem:
    """Assemble a CrowdLearn system from the shared setup.

    ``faults`` attaches a :class:`~repro.crowd.faults.FaultInjector` to the
    system's (fresh) platform and ``resilience`` selects the degradation
    policy — both used by the chaos experiments; the defaults reproduce the
    original fault-free, fully-resilient (but never-triggered) deployment.
    ``guards`` selects the learning-loop guardrail policy (see
    :mod:`repro.core.guards`); ``None`` uses the default ``GuardPolicy()``.
    ``telemetry`` instruments the system and its platform (see
    :mod:`repro.telemetry`); ``None`` keeps the no-op default.
    ``seed`` overrides the setup's root seed for the system's own named
    streams (the serving layer derives one per event, and names it with
    ``event_id``; see :mod:`repro.serve`).
    """
    platform = setup.make_platform(platform_name)
    if faults is not None:
        platform.faults = faults
    if telemetry is not None:
        platform.telemetry = telemetry
    return CrowdLearnSystem.build(
        training_set=setup.train_set,
        config=config or setup.config,
        seed=setup.seed if seed is None else seed,
        committee=setup.clone_committee(),
        platform=platform,
        pilot=setup.pilot,
        resilience=resilience,
        guards=guards,
        telemetry=telemetry,
        event_id=event_id,
    )


def run_all_schemes(setup: ExperimentSetup) -> dict[str, SchemeResult]:
    """Run all seven compared schemes (Table II's rows) on fresh streams.

    Every scheme sees an identically-distributed (same test pool, same
    config) stream; streams use per-scheme RNG, as different schemes on
    MTurk could not share workers' exact draws anyway.
    """
    config = setup.config
    results: dict[str, SchemeResult] = {}

    # CrowdLearn.
    system = build_crowdlearn(setup)
    outcome = system.run(setup.make_stream("crowdlearn"))
    results["CrowdLearn"] = scheme_result_from_run("CrowdLearn", outcome)

    # AI-only experts (reuse the trained base committee, never mutated here).
    for expert in setup.base_committee.experts:
        scheme = AIOnlyScheme(expert)
        results[scheme.name] = scheme.run(setup.make_stream(scheme.name))

    # Ensemble.
    ensemble = EnsembleScheme(setup.base_committee.experts, setup.train_set)
    results["Ensemble"] = ensemble.run(setup.make_stream("ensemble"))

    # Hybrid-Para (its AI half is the single VGG16 expert, as in [53]-style
    # parallel systems that pair one model with the crowd).
    vgg = next(e for e in setup.base_committee.experts if e.name == "VGG16")
    para = HybridParaScheme(
        model=vgg,
        platform=setup.make_platform("hybrid-para"),
        incentive_cents=setup.fixed_incentive_cents(),
        queries_per_cycle=config.queries_per_cycle,
        rng=setup.seeds.get("hybrid-para"),
    )
    results["Hybrid-Para"] = para.run(setup.make_stream("hybrid-para"))

    # Hybrid-AL retrains a single classifier (Laws et al. use one supervised
    # learner), so its committee is one retrainable clone of VGG16.
    al = HybridALScheme(
        committee=Committee([copy.deepcopy(vgg)]),
        platform=setup.make_platform("hybrid-al"),
        incentive_cents=setup.fixed_incentive_cents(),
        queries_per_cycle=config.queries_per_cycle,
        replay_pool=setup.train_set,
        rng=setup.seeds.get("hybrid-al"),
        replay_size=2 * config.mic_replay_size,
    )
    results["Hybrid-AL"] = al.run(setup.make_stream("hybrid-al"))
    return results
