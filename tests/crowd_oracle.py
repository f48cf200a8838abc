"""Test-only oracle: the control plane's scalar formulas before their rewrite for speed.

The crowd simulator now memoizes its incentive interpolations, clamps
scalars with Python floats and precomputes its confusion weights; MIC
scores every query of an expert in one row-wise pass; the cycle fuses
CQC's labels and distributions from one forest walk; UCB takes ``log t``
once per context.  Each must return the same bytes, and draw the same
random numbers in the same order, as the code below: a verbatim copy of
the earlier formulas, which ``tests/test_control_plane_parity.py``
compares them with.
"""

from __future__ import annotations

import numpy as np

from repro.bandit.ccmb import UCBALPBandit
from repro.crowd import delay, quality
from repro.crowd.delay import INCENTIVE_LEVELS
from repro.crowd.population import WorkerPopulation
from repro.crowd.tasks import QuestionnaireAnswers
from repro.crowd.worker import Worker
from repro.data.metadata import DamageLabel, ImageMetadata, SceneType
from repro.metrics.information import bounded_divergence
from repro.utils.clock import TemporalContext


class QualityModel(quality.QualityModel):
    """Rebuilds the incentive tables and interpolates on every call."""

    def offset(self, incentive_cents: float) -> float:
        if incentive_cents <= 0:
            raise ValueError(f"incentive must be positive, got {incentive_cents}")
        levels = np.array(INCENTIVE_LEVELS)
        offsets = np.array(
            [quality._QUALITY_OFFSET[level] for level in INCENTIVE_LEVELS]
        )
        log_level = np.log(np.clip(incentive_cents, levels[0], levels[-1]))
        return float(np.interp(log_level, np.log(levels), offsets))

    def effective_accuracy(
        self, reliability: float, incentive_cents: float
    ) -> float:
        if not 0.0 <= reliability <= 1.0:
            raise ValueError(f"reliability must be in [0, 1], got {reliability}")
        return float(
            np.clip(reliability + self.offset(incentive_cents), 0.05, 0.98)
        )


class DelayModel(delay.DelayModel):
    """Rebuilds the (context, incentive) table on every call."""

    def mean_delay(self, context: TemporalContext, incentive_cents: float) -> float:
        if incentive_cents <= 0:
            raise ValueError(
                f"incentive must be positive, got {incentive_cents}"
            )
        table = delay._MEAN_DELAY[context]
        levels = np.array(INCENTIVE_LEVELS)
        means = np.array([table[level] for level in INCENTIVE_LEVELS])
        log_level = np.log(np.clip(incentive_cents, levels[0], levels[-1]))
        return float(np.interp(log_level, np.log(levels), means))


class OracleWorker(Worker):
    """A worker answering with ``np.clip`` and per-call confusion weights."""

    def label_accuracy(self, incentive_cents, quality_model, metadata=None):
        accuracy = quality_model.effective_accuracy(
            self.reliability, incentive_cents
        )
        if metadata is not None:
            accuracy -= self._difficulty_penalty(metadata)
        return float(np.clip(accuracy, 0.05, 0.98))

    def answer_questionnaire(
        self,
        metadata: ImageMetadata,
        incentive_cents: float,
        quality_model,
        rng: np.random.Generator,
    ) -> QuestionnaireAnswers:
        accuracy = self.label_accuracy(incentive_cents, quality_model)
        detect_prob = np.clip(0.55 + 0.45 * self.insight + 0.1 * (accuracy - 0.8),
                              0.05, 0.99)
        says_fake = (
            metadata.is_fake
            if rng.random() < detect_prob
            else not metadata.is_fake
        )
        scene = (
            metadata.scene
            if rng.random() < accuracy
            else list(SceneType)[int(rng.integers(len(SceneType)))]
        )
        says_danger = (
            metadata.people_in_danger
            if rng.random() < detect_prob
            else not metadata.people_in_danger
        )
        return QuestionnaireAnswers(
            says_fake=bool(says_fake),
            scene=scene,
            says_people_in_danger=bool(says_danger),
        )

    @staticmethod
    def _confused_label(
        true_label: DamageLabel, rng: np.random.Generator
    ) -> DamageLabel:
        others = [label for label in DamageLabel if label != true_label]
        distances = np.array(
            [abs(int(label) - int(true_label)) for label in others], dtype=float
        )
        weights = 1.0 / distances
        weights /= weights.sum()
        return others[int(rng.choice(len(others), p=weights))]


def oracle_population(population: WorkerPopulation) -> WorkerPopulation:
    """A copy of ``population`` whose workers answer with the oracle."""
    twin = WorkerPopulation.__new__(WorkerPopulation)
    twin.workers = [
        OracleWorker(
            worker_id=w.worker_id,
            reliability=w.reliability,
            insight=w.insight,
            speed=w.speed,
            activity=dict(w.activity),
        )
        for w in population.workers
    ]
    return twin


def expert_losses(
    expert_votes: list[np.ndarray], truth_distributions: np.ndarray
) -> np.ndarray:
    """MIC's Eq. 5 losses as a loop of per-query divergences."""
    truth_distributions = np.asarray(truth_distributions, dtype=np.float64)
    losses = []
    for votes in expert_votes:
        votes = np.asarray(votes, dtype=np.float64)
        per_query = [
            bounded_divergence(vote, truth)
            for vote, truth in zip(votes, truth_distributions)
        ]
        losses.append(float(np.mean(per_query)))
    return np.array(losses)


def ucb_indices(bandit: UCBALPBandit, context: int) -> np.ndarray:
    """UCB indices with one ``np.log`` and ``np.sqrt`` per arm."""
    indices = np.empty(len(bandit.arms))
    total = max(bandit.t, 1)
    for arm, stats in enumerate(bandit.stats[context]):
        if stats.pulls == 0:
            indices[arm] = np.inf
        else:
            radius = bandit.exploration * np.sqrt(
                2.0 * np.log(total) / stats.pulls
            )
            indices[arm] = stats.mean_payoff + radius
    return indices
