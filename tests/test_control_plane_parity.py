"""Byte parity of the per-cycle control plane with its earlier scalar formulas.

``tests/crowd_oracle.py`` keeps the formulas as they were before the crowd
simulator, MIC's losses, CQC's fusion and the UCB indices stopped calling
numpy once per scalar.  The rewritten code must return the same bytes and
leave every generator in the same state.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.bandit.ccmb import UCBALPBandit
from repro.core.committee import Committee
from repro.core.cqc import CrowdQualityControl
from repro.core.mic import MachineIntelligenceCalibrator
from repro.crowd import delay, quality
from repro.crowd.delay import INCENTIVE_LEVELS, DelayModel
from repro.crowd.faults import FaultInjector, FaultPlan, PlatformUnavailable
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.population import WorkerPopulation
from repro.crowd.quality import QualityModel
from repro.data.dataset import build_dataset
from repro.metrics.information import batch_bounded_divergence, bounded_divergence
from repro.utils.clock import TemporalContext
from tests import crowd_oracle

#: Every pilot level plus incentives between, below and above them.
INCENTIVES = INCENTIVE_LEVELS + (0.5, 3.0, 15.0, 25.0)
N_QUERIES = 300

FAULTS = FaultPlan(
    abandonment_rate=0.1,
    spam_rate=0.05,
    adversarial_rate=0.05,
    delay_spike_rate=0.1,
    duplicate_rate=0.05,
    malformed_rate=0.05,
    outage_windows=((40, 45),),
)


def response_key(response):
    q = response.questionnaire
    return (
        response.worker_id,
        int(response.label),
        np.float64(response.delay_seconds).tobytes(),
        None if q is None else (q.says_fake, q.scene, q.says_people_in_danger),
    )


def post_all(platform, dataset):
    """Post ``N_QUERIES`` queries over every context x incentive pair."""
    contexts = list(TemporalContext)
    out = []
    for i in range(N_QUERIES):
        image = dataset[i % len(dataset)]
        incentive = INCENTIVES[i % len(INCENTIVES)]
        context = contexts[(i // len(INCENTIVES)) % len(contexts)]
        try:
            result = platform.post_query(image.metadata, incentive, context)
        except PlatformUnavailable:
            out.append(None)
            continue
        out.append(result)
    return out


@pytest.fixture(scope="module")
def world():
    population = WorkerPopulation(n_workers=60, rng=np.random.default_rng(5))
    dataset = build_dataset(
        n_images=90, archetype_fraction=0.3, rng=np.random.default_rng(6)
    )
    return population, dataset


def twin_platforms(population, plan):
    def make(pop, delay_model, quality_model):
        faults = None
        if plan is not None:
            faults = FaultInjector(plan, rng=np.random.default_rng(77))
        return CrowdsourcingPlatform(
            population=pop,
            delay_model=delay_model,
            quality_model=quality_model,
            rng=np.random.default_rng(2024),
            faults=faults,
        )

    new = make(population, DelayModel(), QualityModel())
    old = make(
        crowd_oracle.oracle_population(population),
        crowd_oracle.DelayModel(),
        crowd_oracle.QualityModel(),
    )
    return new, old


@pytest.fixture(scope="module")
def posted(world):
    """The new and the oracle platform's results, fault-free."""
    population, dataset = world
    new, old = twin_platforms(population, None)
    return post_all(new, dataset), post_all(old, dataset), new, old


class TestCrowdParity:
    @pytest.mark.parametrize("plan", [None, FAULTS], ids=["clean", "faults"])
    def test_same_responses_and_generator_state(self, world, plan):
        population, dataset = world
        new, old = twin_platforms(population, plan)
        new_results = post_all(new, dataset)
        old_results = post_all(old, dataset)
        assert sum(r is None for r in new_results) == (
            0 if plan is None else 5
        )
        for a, b in zip(new_results, old_results):
            assert (a is None) == (b is None)
            if a is None:
                continue
            assert a.query == b.query
            assert a.n_late == b.n_late
            assert [response_key(r) for r in a.responses] == [
                response_key(r) for r in b.responses
            ]
        assert new.rng.bit_generator.state == old.rng.bit_generator.state
        if plan is not None:
            assert new.faults.counters == old.faults.counters
            assert (
                new.faults.rng.bit_generator.state
                == old.faults.rng.bit_generator.state
            )

    def test_every_context_and_incentive_is_posted(self, posted):
        new_results = posted[0]
        pairs = {
            (r.query.context, r.query.incentive_cents) for r in new_results
        }
        assert pairs == {
            (context, incentive)
            for context in TemporalContext
            for incentive in INCENTIVES
        }

    @pytest.mark.parametrize("incentive", INCENTIVES + (4, 7.5))
    def test_model_scalars(self, incentive):
        assert QualityModel().offset(incentive) == crowd_oracle.QualityModel().offset(
            incentive
        )
        for reliability in (0.0, 0.04, 0.5, 0.97, 1.0):
            assert QualityModel().effective_accuracy(
                reliability, incentive
            ) == crowd_oracle.QualityModel().effective_accuracy(
                reliability, incentive
            )
        for context in TemporalContext:
            assert DelayModel().mean_delay(
                context, incentive
            ) == crowd_oracle.DelayModel().mean_delay(context, incentive)


class TestNonFiniteIncentives:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_refused_before_the_memo(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            QualityModel().offset(bad)
        with pytest.raises(ValueError, match="positive and finite"):
            QualityModel().effective_accuracy(0.8, bad)
        with pytest.raises(ValueError, match="positive and finite"):
            DelayModel().mean_delay(TemporalContext.MORNING, bad)
        with pytest.raises(ValueError, match="positive and finite"):
            DelayModel().sample(
                TemporalContext.MORNING, bad, np.random.default_rng(0)
            )
        assert not any(
            key != key or not np.isfinite(key) for key in quality._OFFSET_MEMO
        )
        assert not any(
            incentive != incentive or not np.isfinite(incentive)
            for _, incentive in delay._MEAN_MEMO
        )

    def test_post_refuses_nan_incentive(self, world, platform):
        _, dataset = world
        with pytest.raises(ValueError, match="positive and finite"):
            platform.post_query(
                dataset[0].metadata, float("nan"), TemporalContext.EVENING
            )


def _rows(gen: np.random.Generator, n: int, k: int = 3) -> dict[str, np.ndarray]:
    onehot = np.eye(k)[gen.integers(k, size=n)]
    edge = np.full((n, k), 1e-12)
    edge[np.arange(n), gen.integers(k, size=n)] = 1.0 - 2e-12
    edge[::3, 0] = np.nextafter(1e-12, 0.0)
    edge[1::3, 0] = np.nextafter(1e-12, 1.0)
    return {
        "random": gen.dirichlet(np.ones(k), size=n),
        "unnormalized": gen.uniform(0.0, 5.0, size=(n, k)),
        "onehot": onehot,
        "eps-edge": edge,
        "zeros": np.where(gen.random((n, k)) < 0.4, 0.0, gen.random((n, k)))
        + np.eye(k)[gen.integers(k, size=n)],
    }


class TestDivergenceParity:
    @pytest.mark.parametrize("kind_p", ["random", "unnormalized", "onehot", "eps-edge", "zeros"])
    @pytest.mark.parametrize("kind_q", ["random", "onehot", "eps-edge"])
    @pytest.mark.parametrize("k", [3, 5, 9])
    def test_rows_match_the_loop(self, kind_p, kind_q, k):
        gen = np.random.default_rng(k)
        n = 37
        p = _rows(gen, n, k)[kind_p]
        q = _rows(gen, n, k)[kind_q]
        loop = np.array([bounded_divergence(a, b) for a, b in zip(p, q)])
        assert batch_bounded_divergence(p, q).tobytes() == loop.tobytes()

    def test_expert_losses_match_the_loop(self):
        gen = np.random.default_rng(3)
        for n in (1, 2, 7, 8, 9, 40):
            truth = gen.dirichlet(np.ones(3), size=n)
            votes = [
                gen.dirichlet(np.ones(3), size=n),
                np.eye(3)[gen.integers(3, size=n)],
                truth.copy(),
            ]
            new = MachineIntelligenceCalibrator().expert_losses(votes, truth)
            old = crowd_oracle.expert_losses(votes, truth)
            assert new.tobytes() == old.tobytes()

    def test_refuses_bad_rows(self):
        good = np.full((2, 3), 1.0 / 3)
        with pytest.raises(ValueError):
            batch_bounded_divergence(good, np.full((2, 4), 0.25))
        with pytest.raises(ValueError):
            batch_bounded_divergence(-good, good)
        with pytest.raises(ValueError):
            batch_bounded_divergence(np.zeros((2, 3)), good)
        with pytest.raises(ValueError):
            batch_bounded_divergence(good[0], good[0])


class TestCQCParity:
    @pytest.mark.parametrize("use_questionnaire", [True, False])
    def test_fuse_matches_the_two_calls(self, posted, world, use_questionnaire):
        _, dataset = world
        results = [r for r in posted[0] if r is not None and r.responses]
        truth = {image.image_id: int(image.true_label) for image in dataset}
        golden = np.array([truth[r.query.image_id] for r in results])
        cqc = CrowdQualityControl(use_questionnaire=use_questionnaire).fit(
            results[:200], golden[:200], rng=np.random.default_rng(1)
        )
        held_out = results[200:]
        labels, dists = cqc.fuse(held_out)
        features = cqc._features(held_out)
        old_labels = cqc._classifier.predict(features)
        old_dists = cqc._classifier.predict_proba(features)
        assert labels.dtype == old_labels.dtype
        assert labels.tobytes() == old_labels.tobytes()
        assert dists.tobytes() == old_dists.tobytes()
        assert cqc.truthful_labels(held_out).tobytes() == labels.tobytes()
        assert cqc.label_distributions(held_out).tobytes() == dists.tobytes()

    def test_tied_logits_break_like_predict(self):
        from repro.boosting.gbt import GradientBoostedClassifier

        x = np.zeros((6, 2))
        model = GradientBoostedClassifier(n_estimators=2).fit(
            x, np.array([0, 1, 0, 1, 2, 2]), n_classes=3
        )
        labels, probs = model.predict_with_proba(x)
        assert labels.tobytes() == model.predict(x).tobytes()
        assert probs.tobytes() == model.predict_proba(x).tobytes()

    def test_unfitted_refuses(self):
        with pytest.raises(RuntimeError, match="before fit"):
            CrowdQualityControl().fuse([])


class TestUCBParity:
    def test_indices_match_the_oracle(self):
        gen = np.random.default_rng(11)
        bandit = UCBALPBandit(4, INCENTIVE_LEVELS)
        for z in range(4):
            assert bandit.ucb_indices(z).tobytes() == crowd_oracle.ucb_indices(
                bandit, z
            ).tobytes()
        bandit.update(0, 2, -0.4)  # t = 1: log t = 0, radius 0
        assert bandit.t == 1
        for z in range(4):
            assert bandit.ucb_indices(z).tobytes() == crowd_oracle.ucb_indices(
                bandit, z
            ).tobytes()
        for _ in range(500):
            z = int(gen.integers(4))
            arm = int(gen.integers(len(INCENTIVE_LEVELS) - 1))  # last arm unpulled
            bandit.update(z, arm, -float(gen.exponential()))
            for context in range(4):
                assert bandit.ucb_indices(
                    context
                ).tobytes() == crowd_oracle.ucb_indices(bandit, context).tobytes()
        assert np.isinf(bandit.ucb_indices(0)[-1])


class TestCommitteeWeightsStayFinite:
    def _committee(self):
        return Committee([object(), object(), object()])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_set_weights_refuses_non_finite(self, bad):
        committee = self._committee()
        before = committee.weights
        with pytest.raises(ValueError, match="finite"):
            committee.set_weights(np.array([0.5, bad, 0.5]))
        assert committee.weights.tobytes() == before.tobytes()

    def test_zero_queries_leave_weights_unchanged(self):
        committee = self._committee()
        committee.set_weights(np.array([0.2, 0.3, 0.5]))
        before = committee.weights
        empty = np.empty((0, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = MachineIntelligenceCalibrator().update_weights(
                committee, [empty, empty, empty], empty
            )
        assert weights.tobytes() == before.tobytes()
        assert committee.weights.tobytes() == before.tobytes()

    def test_expert_losses_refuse_zero_queries(self):
        empty = np.empty((0, 3))
        with pytest.raises(ValueError, match="at least one query"):
            MachineIntelligenceCalibrator().expert_losses([empty], empty)
