"""Machine Intelligence Calibration (§IV-D).

MIC closes the loop: given CQC's truthful labels for the query set it

1. **reweights the committee** — each expert's loss is the bounded symmetric
   KL divergence between its vote and the truthful distribution (Eq. 5),
   driving a classical exponential-weights update [50];
2. **retrains the experts** — the crowd labels become training data for the
   next sensing cycle (the fix for insufficient-training-data failures);
3. **offloads to the crowd** — the query set's final labels are replaced by
   the truthful labels outright (the fix for innate AI failures).
"""

from __future__ import annotations

import numpy as np

from repro.core.committee import Committee
from repro.data.dataset import DisasterDataset, DisasterImage
from repro.metrics.information import batch_bounded_divergence
from repro.utils.validation import check_integer, check_non_negative

__all__ = ["MachineIntelligenceCalibrator", "ReplayBuffer"]


class ReplayBuffer:
    """FIFO buffer of recent crowd-labeled images for warm-start retraining.

    Holds the last ``capacity`` (image, truthful label) pairs that MIC
    retrained on; warm-start fine-tuning mixes a small sample of them into
    each new crowd batch so incremental updates do not forget the recent
    past.  Adding is deterministic bookkeeping (no RNG); only
    :meth:`sample` draws.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._images: list[DisasterImage] = []
        self._labels: list[int] = []

    def __len__(self) -> int:
        return len(self._images)

    def add(self, images: list[DisasterImage], labels: np.ndarray) -> None:
        """Append a crowd-labeled batch, evicting the oldest entries."""
        labels = np.asarray(labels, dtype=np.int64).ravel()
        if labels.shape[0] != len(images):
            raise ValueError("one label per image is required")
        self._images.extend(images)
        self._labels.extend(int(label) for label in labels)
        excess = len(self._images) - self.capacity
        if excess > 0:
            del self._images[:excess]
            del self._labels[:excess]

    def sample(
        self, k: int, rng: np.random.Generator
    ) -> tuple[list[DisasterImage], list[int]]:
        """Up to ``k`` distinct entries, uniformly without replacement."""
        take = min(k, len(self._images))
        if take <= 0:
            return [], []
        chosen = rng.choice(len(self._images), size=take, replace=False)
        images = [self._images[int(i)] for i in chosen]
        labels = [self._labels[int(i)] for i in chosen]
        return images, labels


class MachineIntelligenceCalibrator:
    """Implements MIC's three calibration strategies.

    Parameters
    ----------
    eta:
        Learning rate of the exponential-weights update.
    replay_size:
        Number of original training images mixed into each retraining batch
        to stabilize fine-tuning (experience replay).
    retrain:
        Whether the model-retraining strategy is enabled (ablation switch).
    reweight:
        Whether the expert-weight update is enabled (ablation switch).
    offload:
        Whether crowd offloading is enabled (ablation switch).
    warm_start:
        Enable warm-start incremental retraining: instead of the full
        fine-tune over ``new crowd batch + golden replay`` every cycle,
        experts reuse their incumbent weights and take a short
        (``warm_epochs``) pass over ``new crowd batch + a small sample of
        the crowd ReplayBuffer``.  Every ``full_refit_every``-th retrain
        (and always the first) falls back to the full cold path as an
        escape hatch against drift.  Both paths flow through the same
        ``Committee.retrain`` — guard gating and version bumps are
        identical.
    replay_buffer:
        Capacity of the crowd :class:`ReplayBuffer` (warm-start only).
    warm_replay_sample:
        Replay entries mixed into each warm-start batch.
    full_refit_every:
        Cold full-refit period, counted in retrains; ``1`` means every
        retrain is cold (bit-identical to ``warm_start=False``), ``0``
        disables periodic refits entirely (first retrain is still cold).
    warm_epochs:
        Fine-tuning epochs per warm-start retrain (overrides each expert's
        ``retrain_epochs`` on warm cycles).
    """

    def __init__(
        self,
        eta: float = 2.0,
        replay_size: int = 30,
        retrain: bool = True,
        reweight: bool = True,
        offload: bool = True,
        warm_start: bool = False,
        replay_buffer: int = 64,
        warm_replay_sample: int = 4,
        full_refit_every: int = 20,
        warm_epochs: int = 1,
    ) -> None:
        check_non_negative(eta, "eta")
        check_integer(replay_size, "replay_size", 0)
        check_integer(replay_buffer, "replay_buffer", 1)
        check_integer(warm_replay_sample, "warm_replay_sample", 0)
        check_integer(full_refit_every, "full_refit_every", 0)
        check_integer(warm_epochs, "warm_epochs", 1)
        self.eta = eta
        self.replay_size = replay_size
        self.retrain = retrain
        self.reweight = reweight
        self.offload = offload
        self.warm_start = warm_start
        self.warm_replay_sample = warm_replay_sample
        self.full_refit_every = full_refit_every
        self.warm_epochs = warm_epochs
        self.replay = ReplayBuffer(replay_buffer)
        #: Completed retrain calls (warm or cold) — drives the refit period.
        self.retrain_count = 0
        self.warm_retrains = 0
        self.full_refits = 0

    def expert_losses(
        self,
        expert_votes: list[np.ndarray],
        truth_distributions: np.ndarray,
    ) -> np.ndarray:
        """Per-expert mean bounded divergence from the truthful labels (Eq. 5).

        ``expert_votes[m]`` holds expert m's distributions on the *query set*
        (shape ``(Y, k)``); ``truth_distributions`` holds CQC's distributions
        aligned with them.  Every expert's divergences come from one
        row-wise :func:`~repro.metrics.information.batch_bounded_divergence`
        pass over the stacked votes, the bytes a per-query loop gives.
        Raises ``ValueError`` when the shapes disagree or there are no
        queries (a mean over nothing).
        """
        truth = np.asarray(truth_distributions, dtype=np.float64)
        votes = [np.asarray(v, dtype=np.float64) for v in expert_votes]
        for v in votes:
            if v.shape != truth.shape:
                raise ValueError(
                    "expert votes and truth distributions must align: "
                    f"{v.shape} vs {truth.shape}"
                )
        if truth.shape[0] == 0:
            raise ValueError("expert losses need at least one query")
        per_query = batch_bounded_divergence(
            np.concatenate(votes), np.tile(truth, (len(votes), 1))
        ).reshape(len(votes), -1)
        return np.array([float(np.mean(row)) for row in per_query])

    def update_weights(
        self,
        committee: Committee,
        expert_votes: list[np.ndarray],
        truth_distributions: np.ndarray,
        active_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exponential-weights update of the committee; returns new weights.

        ``active_mask`` (optional, boolean per expert) freezes excluded —
        quarantined — members: their weight is neither rewarded nor
        punished, so a broken expert's garbage losses cannot distort the
        committee's weight distribution while it sits out.  ``None`` (the
        default) updates every member exactly as before.  With no queries
        there is no evidence, and the weights are left as they are.
        """
        if not self.reweight or len(truth_distributions) == 0:
            return committee.weights
        losses = self.expert_losses(expert_votes, truth_distributions)
        factors = np.exp(-self.eta * losses)
        if active_mask is not None:
            active_mask = np.asarray(active_mask, dtype=bool).ravel()
            if active_mask.shape[0] != losses.shape[0]:
                raise ValueError(
                    f"active_mask must cover {losses.shape[0]} experts, "
                    f"got {active_mask.shape[0]}"
                )
            factors = np.where(active_mask, factors, 1.0)
        new_weights = committee.weights * factors
        committee.set_weights(new_weights)
        return committee.weights

    def _warm_cycle(self) -> bool:
        """Whether the *next* retrain may take the warm-start path."""
        if not self.warm_start or len(self.replay) == 0:
            return False
        if self.full_refit_every <= 0:
            return True
        return self.retrain_count % self.full_refit_every != 0

    def retrain_experts(
        self,
        committee: Committee,
        query_images: list[DisasterImage],
        truthful_labels: np.ndarray,
        replay_pool: DisasterDataset,
        rng: np.random.Generator,
    ) -> None:
        """Fine-tune every expert on crowd-labeled queries + a replay sample.

        The cold (default) path fine-tunes for each expert's full
        ``retrain_epochs`` on the crowd batch plus a ``replay_size`` sample
        of the original golden training set, which keeps a handful of crowd
        labels from dragging the experts off distribution.

        With ``warm_start`` enabled, non-refit cycles instead take one
        short pass (``warm_epochs``) over the crowd batch plus a small
        sample of *recent crowd batches* from the :class:`ReplayBuffer` —
        the experts' incumbent weights already encode the golden set, so
        the expensive golden replay is reserved for the periodic
        ``full_refit_every`` cold refits.
        """
        if not self.retrain or not query_images:
            return
        from repro.telemetry.runtime import get_telemetry

        tel = get_telemetry()
        truthful_labels = np.asarray(truthful_labels, dtype=np.int64).ravel()
        if truthful_labels.shape[0] != len(query_images):
            raise ValueError("one truthful label per query image is required")
        if self._warm_cycle():
            sampled_images, sampled_labels = self.replay.sample(
                self.warm_replay_sample, rng
            )
            images = list(query_images) + sampled_images
            labels = list(truthful_labels) + sampled_labels
            with tel.span("cycle.mic.retrain.fit", warm=1):
                committee.retrain(
                    DisasterDataset(images),
                    np.array(labels, dtype=np.int64),
                    rng,
                    epochs=self.warm_epochs,
                )
            self.warm_retrains += 1
        else:
            images = list(query_images)
            labels = list(truthful_labels)
            if self.replay_size > 0 and len(replay_pool) > 0:
                take = min(self.replay_size, len(replay_pool))
                chosen = rng.choice(len(replay_pool), size=take, replace=False)
                for index in chosen:
                    replay_image = replay_pool[int(index)]
                    images.append(replay_image)
                    labels.append(int(replay_image.true_label))
            with tel.span("cycle.mic.retrain.fit", warm=0):
                committee.retrain(
                    DisasterDataset(images), np.array(labels, dtype=np.int64), rng
                )
            self.full_refits += 1
        if self.warm_start:
            self.replay.add(list(query_images), truthful_labels)
        self.retrain_count += 1

    def retrain_stats(self) -> dict[str, int]:
        """Warm/cold retrain counters (reported by the benchmark)."""
        return {
            "retrains": self.retrain_count,
            "warm_retrains": self.warm_retrains,
            "full_refits": self.full_refits,
            "replay_buffered": len(self.replay),
        }

    def offload_labels(
        self,
        committee_labels: np.ndarray,
        query_indices: np.ndarray,
        truthful_labels: np.ndarray,
    ) -> np.ndarray:
        """Crowd offloading: overwrite the query set's labels with the crowd's."""
        committee_labels = np.asarray(committee_labels, dtype=np.int64).copy()
        if not self.offload:
            return committee_labels
        query_indices = np.asarray(query_indices, dtype=np.int64)
        truthful_labels = np.asarray(truthful_labels, dtype=np.int64)
        if query_indices.shape != truthful_labels.shape:
            raise ValueError("query indices and truthful labels must align")
        committee_labels[query_indices] = truthful_labels
        return committee_labels

    def offload_distributions(
        self,
        committee_vote: np.ndarray,
        query_indices: np.ndarray,
        truth_distributions: np.ndarray,
    ) -> np.ndarray:
        """Same as :meth:`offload_labels` but on probabilistic scores (ROC)."""
        committee_vote = np.asarray(committee_vote, dtype=np.float64).copy()
        if not self.offload:
            return committee_vote
        query_indices = np.asarray(query_indices, dtype=np.int64)
        truth_distributions = np.asarray(truth_distributions, dtype=np.float64)
        if truth_distributions.shape[0] != query_indices.shape[0]:
            raise ValueError("query indices and truth distributions must align")
        committee_vote[query_indices] = truth_distributions
        return committee_vote
