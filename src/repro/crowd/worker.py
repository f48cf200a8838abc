"""Individual crowd-worker model.

A worker is characterized by:

- ``reliability`` — base probability of labeling an *honest* image correctly
  (population mean ~0.8, matching the pilot's observation);
- ``insight`` — probability of reading the high-level story of a *deceptive*
  image (fake/close-up/implicit) instead of being fooled by its pixels; this
  is the human advantage the whole CrowdLearn design leans on;
- ``speed`` — personal multiplier on response delay;
- ``activity`` — per-context availability weights (workers are more active
  in the evening/midnight, per the pilot).

Workers answer from the image *metadata*, never the pixels: the simulation
grants humans exactly the contextual channel the AI lacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crowd.quality import QualityModel, clamp
from repro.crowd.tasks import QuestionnaireAnswers
from repro.data.metadata import (
    DamageLabel,
    FailureArchetype,
    ImageMetadata,
    SceneType,
)
from repro.utils.clock import TemporalContext

__all__ = ["Worker"]

_SCENES: list[SceneType] = list(SceneType)


def _confusion_table(
    true_label: DamageLabel,
) -> tuple[list[DamageLabel], np.ndarray]:
    """The wrong labels for ``true_label`` and their draw weights: inverse
    severity distance, normalized, so adjacent severities are likelier."""
    others = [label for label in DamageLabel if label != true_label]
    distances = np.array(
        [abs(int(label) - int(true_label)) for label in others], dtype=float
    )
    weights = 1.0 / distances
    weights /= weights.sum()
    return others, weights


_CONFUSION = {label: _confusion_table(label) for label in DamageLabel}


@dataclass
class Worker:
    """One simulated crowd worker."""

    worker_id: int
    reliability: float
    insight: float
    speed: float
    activity: dict[TemporalContext, float]

    def __post_init__(self) -> None:
        if not 0.0 <= self.reliability <= 1.0:
            raise ValueError(f"reliability must be in [0, 1]: {self.reliability}")
        if not 0.0 <= self.insight <= 1.0:
            raise ValueError(f"insight must be in [0, 1]: {self.insight}")
        if self.speed <= 0:
            raise ValueError(f"speed must be positive: {self.speed}")
        for context in TemporalContext:
            if self.activity.get(context, 0.0) < 0:
                raise ValueError("activity weights must be non-negative")

    def label_accuracy(
        self,
        incentive_cents: float,
        quality_model: QualityModel,
        metadata: ImageMetadata | None = None,
    ) -> float:
        """Effective accuracy under ``incentive_cents``, on ``metadata``.

        Genuinely hard images degrade everyone: low-resolution photos cost
        ~12 accuracy points and moderate damage (the boundary class) ~6 —
        this is why the paper's aggregated crowd labels sit near 84-94%
        rather than at the honest-image ceiling.  Scalar arithmetic stays
        in Python floats: the worker answers one query at a time.
        """
        accuracy = quality_model.effective_accuracy(
            self.reliability, incentive_cents
        )
        if metadata is not None:
            accuracy -= self._difficulty_penalty(metadata)
        return clamp(accuracy, 0.05, 0.98)

    @staticmethod
    def _difficulty_penalty(metadata: ImageMetadata) -> float:
        penalty = 0.0
        if metadata.archetype is FailureArchetype.LOW_RESOLUTION:
            penalty += 0.12
        if metadata.true_label is DamageLabel.MODERATE:
            penalty += 0.06
        return penalty

    def answer_label(
        self,
        metadata: ImageMetadata,
        incentive_cents: float,
        quality_model: QualityModel,
        rng: np.random.Generator,
    ) -> DamageLabel:
        """Produce this worker's severity label for an image.

        Honest images: correct with the effective accuracy, otherwise the
        error lands on an adjacent severity with higher probability than the
        far one (severity is ordinal).  Deceptive images: the worker sees
        through the deception with probability ``insight x accuracy``;
        otherwise they report what the pixels suggest, like the AI would.
        """
        accuracy = self.label_accuracy(incentive_cents, quality_model, metadata)
        if metadata.is_deceptive:
            if rng.random() < self.insight * accuracy:
                return metadata.true_label
            return metadata.apparent_label
        if rng.random() < accuracy:
            return metadata.true_label
        return self._confused_label(metadata.true_label, rng)

    def answer_questionnaire(
        self,
        metadata: ImageMetadata,
        incentive_cents: float,
        quality_model: QualityModel,
        rng: np.random.Generator,
    ) -> QuestionnaireAnswers:
        """Produce the fixed-form questionnaire answers.

        Fake detection and danger recognition ride on ``insight`` (they are
        story-level judgements); the scene question rides on plain accuracy.
        Questionnaire answers are deliberately *more* reliable than the
        severity label itself — recognizing a photoshopped image is easier
        than grading damage — which is what lets CQC beat majority voting.
        """
        accuracy = self.label_accuracy(incentive_cents, quality_model)
        detect_prob = clamp(
            0.55 + 0.45 * self.insight + 0.1 * (accuracy - 0.8), 0.05, 0.99
        )
        says_fake = (
            metadata.is_fake
            if rng.random() < detect_prob
            else not metadata.is_fake
        )
        scene = (
            metadata.scene
            if rng.random() < accuracy
            else _SCENES[int(rng.integers(len(_SCENES)))]
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
        """An erroneous label, biased toward adjacent severities."""
        others, weights = _CONFUSION[true_label]
        return others[int(rng.choice(len(others), p=weights))]
