"""The compared schemes (§V-A): AI-only baselines and human-AI hybrids.

Every scheme consumes the same sensing-cycle stream and produces a
:class:`SchemeResult` with aligned predictions, scores and crowd delays, so
the experiment drivers can tabulate Table II/III and plot Figures 7-9
uniformly.

- **AI-only** — a single expert labels everything (VGG16 / BoVW / DDM).
- **Ensemble** — confidence-rated boosting over the three experts [52].
- **Hybrid-Para** — humans and AI label independently; a complexity index
  decides per image whose answer to keep [53].  Fixed incentive, majority
  voting, no model interaction.
- **Hybrid-AL** — crowdsourced active learning [13]: query the most
  uncertain images, majority-vote the answers, retrain the model; the AI
  still labels everything itself.  Fixed incentive.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.boosting.adaboost import ExpertBooster
from repro.core.committee import Committee
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.tasks import QueryResult
from repro.data.dataset import DisasterDataset
from repro.data.stream import SensingCycleStream
from repro.metrics.information import normalized_entropy
from repro.models.base import DDAModel
from repro.truth.voting import MajorityVote
from repro.utils.clock import TemporalContext

__all__ = [
    "SchemeResult",
    "Scheme",
    "AIOnlyScheme",
    "EnsembleScheme",
    "HybridParaScheme",
    "HybridALScheme",
]


@dataclass
class SchemeResult:
    """Aligned outputs of one scheme over a stream."""

    name: str
    y_true: np.ndarray
    y_pred: np.ndarray
    scores: np.ndarray
    crowd_delays: list[float] = field(default_factory=list)
    crowd_delay_contexts: list[TemporalContext] = field(default_factory=list)
    cost_cents: float = 0.0

    def mean_crowd_delay(self) -> float | None:
        """Mean per-cycle crowd delay; None for AI-only schemes."""
        if not self.crowd_delays:
            return None
        return float(np.mean(self.crowd_delays))

    def crowd_delay_by_context(self) -> dict[TemporalContext, float]:
        """Mean crowd delay per temporal context."""
        table: dict[TemporalContext, list[float]] = {}
        for delay, context in zip(self.crowd_delays, self.crowd_delay_contexts):
            table.setdefault(context, []).append(delay)
        return {c: float(np.mean(v)) for c, v in table.items()}


class Scheme(ABC):
    """A compared scheme: runs over a stream, returns aligned outputs."""

    name: str = "scheme"

    @abstractmethod
    def run(self, stream: SensingCycleStream) -> SchemeResult:
        """Label every image the stream delivers."""


class AIOnlyScheme(Scheme):
    """A single pre-trained expert labels every image (no crowd)."""

    def __init__(self, model: DDAModel, name: str | None = None) -> None:
        self.model = model
        self.name = name or model.name

    def run(self, stream: SensingCycleStream) -> SchemeResult:
        dataset = stream.all_images()
        scores = self.model.predict_proba(dataset)
        return SchemeResult(
            name=self.name,
            y_true=dataset.labels(),
            y_pred=np.argmax(scores, axis=1),
            scores=scores,
        )


class EnsembleScheme(Scheme):
    """Boosted aggregation of the three experts (the Ensemble baseline)."""

    name = "Ensemble"

    def __init__(
        self,
        models: list[DDAModel],
        calibration_set: DisasterDataset,
        n_rounds: int = 10,
    ) -> None:
        if not models:
            raise ValueError("ensemble requires at least one model")
        self.models = list(models)
        calibration_probs = [m.predict_proba(calibration_set) for m in self.models]
        self.booster = ExpertBooster(
            n_rounds=n_rounds, n_classes=models[0].n_classes
        ).fit(calibration_probs, calibration_set.labels())

    def predict_proba(self, dataset: DisasterDataset) -> np.ndarray:
        """Boosted mixture probabilities on a dataset."""
        probs = [m.predict_proba(dataset) for m in self.models]
        return self.booster.predict_proba(probs)

    def run(self, stream: SensingCycleStream) -> SchemeResult:
        dataset = stream.all_images()
        scores = self.predict_proba(dataset)
        return SchemeResult(
            name=self.name,
            y_true=dataset.labels(),
            y_pred=np.argmax(scores, axis=1),
            scores=scores,
        )


class HybridParaScheme(Scheme):
    """Parallel human-AI labeling fused by a complexity index [53].

    Per cycle: a single AI model labels everything; a *random* subset goes
    to the crowd at a fixed incentive; for queried images whose AI
    complexity (normalized prediction entropy) exceeds a threshold, the
    crowd's majority vote wins, otherwise the AI's label stands.  The crowd
    never feeds back into the model — humans and machine work in parallel,
    which is exactly why confidently-wrong AI answers survive.
    """

    name = "Hybrid-Para"

    def __init__(
        self,
        model: DDAModel,
        platform: CrowdsourcingPlatform,
        incentive_cents: float,
        queries_per_cycle: int,
        rng: np.random.Generator,
        complexity_threshold: float = 0.95,
    ) -> None:
        if incentive_cents <= 0:
            raise ValueError("incentive must be positive")
        if queries_per_cycle < 0:
            raise ValueError("queries_per_cycle must be >= 0")
        if not 0.0 <= complexity_threshold <= 1.0:
            raise ValueError("complexity_threshold must be in [0, 1]")
        self.model = model
        self.platform = platform
        self.incentive_cents = incentive_cents
        self.queries_per_cycle = queries_per_cycle
        self.rng = rng
        self.complexity_threshold = complexity_threshold

    def run(self, stream: SensingCycleStream) -> SchemeResult:
        y_true: list[np.ndarray] = []
        y_pred: list[np.ndarray] = []
        scores: list[np.ndarray] = []
        delays: list[float] = []
        delay_contexts: list[TemporalContext] = []
        cost = 0.0
        for cycle in stream:
            dataset = cycle.dataset()
            probs = self.model.predict_proba(dataset)
            labels = np.argmax(probs, axis=1)
            n_queries = min(self.queries_per_cycle, len(dataset))
            if n_queries:
                chosen = self.rng.choice(len(dataset), n_queries, replace=False)
                results: list[QueryResult] = []
                for index in chosen:
                    results.append(
                        self.platform.post_query(
                            dataset[int(index)].metadata,
                            self.incentive_cents,
                            cycle.context,
                        )
                    )
                    cost += self.incentive_cents
                votes = MajorityVote().label_distributions(results)
                for index, vote in zip(chosen, votes):
                    complexity = normalized_entropy(probs[int(index)])
                    if complexity >= self.complexity_threshold:
                        labels[int(index)] = np.argmax(vote)
                        probs[int(index)] = vote
                delays.append(float(np.mean([r.mean_delay for r in results])))
                delay_contexts.append(cycle.context)
            y_true.append(dataset.labels())
            y_pred.append(labels)
            scores.append(probs)
        return SchemeResult(
            name=self.name,
            y_true=np.concatenate(y_true),
            y_pred=np.concatenate(y_pred),
            scores=np.concatenate(scores),
            crowd_delays=delays,
            crowd_delay_contexts=delay_contexts,
            cost_cents=cost,
        )


class HybridALScheme(Scheme):
    """Crowdsourced active learning [13]: query-uncertain, vote, retrain.

    The committee (uniform weights) labels everything itself; the most
    entropy-uncertain images go to the crowd at a fixed incentive; the
    majority-voted answers retrain the committee for the next cycle.  Crowd
    labels never *replace* AI labels — which is exactly why this baseline
    cannot fix the innate failure cases.
    """

    name = "Hybrid-AL"

    def __init__(
        self,
        committee: Committee,
        platform: CrowdsourcingPlatform,
        incentive_cents: float,
        queries_per_cycle: int,
        replay_pool: DisasterDataset,
        rng: np.random.Generator,
        replay_size: int = 30,
    ) -> None:
        if incentive_cents <= 0:
            raise ValueError("incentive must be positive")
        if queries_per_cycle < 0:
            raise ValueError("queries_per_cycle must be >= 0")
        self.committee = committee
        self.platform = platform
        self.incentive_cents = incentive_cents
        self.queries_per_cycle = queries_per_cycle
        self.replay_pool = replay_pool
        self.rng = rng
        self.replay_size = replay_size
        # Crowd-labeled images accumulate across cycles; retraining on the
        # growing pool (one pass per cycle) is what keeps fine-tuning stable
        # instead of oscillating on each cycle's five fresh labels.
        self._pool_images: list = []
        self._pool_labels: list[int] = []
        for expert in committee.experts:
            if hasattr(expert, "retrain_epochs"):
                expert.retrain_epochs = 1

    def run(self, stream: SensingCycleStream) -> SchemeResult:
        y_true: list[np.ndarray] = []
        y_pred: list[np.ndarray] = []
        scores: list[np.ndarray] = []
        delays: list[float] = []
        delay_contexts: list[TemporalContext] = []
        cost = 0.0
        for cycle in stream:
            dataset = cycle.dataset()
            votes = self.committee.expert_votes(dataset)
            probs = self.committee.committee_vote(dataset, votes)
            labels = np.argmax(probs, axis=1)
            y_true.append(dataset.labels())
            y_pred.append(labels)
            scores.append(probs)
            n_queries = min(self.queries_per_cycle, len(dataset))
            if n_queries:
                entropy = self.committee.committee_entropy(dataset, votes)
                chosen = np.argsort(-entropy, kind="stable")[:n_queries]
                results = []
                for index in chosen:
                    results.append(
                        self.platform.post_query(
                            dataset[int(index)].metadata,
                            self.incentive_cents,
                            cycle.context,
                        )
                    )
                    cost += self.incentive_cents
                crowd_labels = MajorityVote().truthful_labels(results)
                delays.append(float(np.mean([r.mean_delay for r in results])))
                delay_contexts.append(cycle.context)
                self._retrain(dataset, chosen, crowd_labels)
        return SchemeResult(
            name=self.name,
            y_true=np.concatenate(y_true),
            y_pred=np.concatenate(y_pred),
            scores=np.concatenate(scores),
            crowd_delays=delays,
            crowd_delay_contexts=delay_contexts,
            cost_cents=cost,
        )

    def _retrain(
        self,
        dataset: DisasterDataset,
        chosen: np.ndarray,
        crowd_labels: np.ndarray,
    ) -> None:
        for index, label in zip(chosen, crowd_labels):
            self._pool_images.append(dataset[int(index)])
            self._pool_labels.append(int(label))
        images = list(self._pool_images)
        labels = list(self._pool_labels)
        if self.replay_size > 0 and len(self.replay_pool) > 0:
            take = min(self.replay_size, len(self.replay_pool))
            for index in self.rng.choice(len(self.replay_pool), take, replace=False):
                replay_image = self.replay_pool[int(index)]
                images.append(replay_image)
                labels.append(int(replay_image.true_label))
        self.committee.retrain(
            DisasterDataset(images), np.array(labels, dtype=np.int64), self.rng
        )
