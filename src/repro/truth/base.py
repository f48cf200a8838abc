"""The one interface every crowd label aggregator answers (Table I).

An :class:`Aggregator` turns a batch of :class:`QueryResult` into a label
distribution per query and a truthful label per query.  How it is fitted is
its own business: CQC trains on the pilot's golden labels, the EM
aggregators fit each batch inside :meth:`~Aggregator.label_distributions`,
and Filtering reads the platform's worker track records.

:class:`EMAggregator` is the EM loop TD-EM and Dawid-Skene share; they
differ only in the M-step and in each response's log-likelihood.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.crowd.tasks import QueryResult
from repro.data.metadata import DamageLabel

__all__ = ["Aggregator", "EMAggregator", "vote_fractions"]


class Aggregator(ABC):
    """Crowd responses in, one label distribution and label per query out."""

    @abstractmethod
    def label_distributions(self, results: list[QueryResult]) -> np.ndarray:
        """Row-stochastic ``(n_queries, n_classes)`` label distributions."""

    def truthful_labels(self, results: list[QueryResult]) -> np.ndarray:
        """The most probable label per query (ties break to the lower)."""
        return np.argmax(self.label_distributions(results), axis=1).astype(np.int64)


def vote_fractions(
    label_lists: Sequence[Sequence[int]], n_classes: int
) -> np.ndarray:
    """Normalized label-vote histogram of each query, ``(n, n_classes)``."""
    if not label_lists:
        raise ValueError("no query results to aggregate")
    fractions = np.zeros((len(label_lists), n_classes))
    for q, labels in enumerate(label_lists):
        if len(labels) == 0:
            raise ValueError("a query has no responses")
        for label in labels:
            if not 0 <= label < n_classes:
                raise ValueError(
                    f"label {label} is outside [0, n_classes={n_classes})"
                )
            fractions[q, label] += 1.0
    return fractions / fractions.sum(axis=1, keepdims=True)


@dataclass
class EMAggregator(Aggregator):
    """EM over true labels and per-worker parameters, fit on each batch.

    Posteriors start from vote fractions; each iteration re-estimates the
    class prior and worker parameters (:meth:`_m_step`), then recomputes
    the posteriors from each response's log-likelihood.  EM stops after
    ``max_iter`` iterations or once no posterior moves by ``tol``;
    ``smoothing`` is the pseudo-count regularizing worker parameters.
    """

    n_classes: int = DamageLabel.count()
    max_iter: int = 50
    tol: float = 1e-6
    smoothing: float = 1.0

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.smoothing < 0:
            raise ValueError(f"smoothing must be >= 0, got {self.smoothing}")

    def fit(self, results: list[QueryResult]) -> tuple[np.ndarray, dict]:
        """Run EM; returns (posteriors, worker id → fitted parameters)."""
        worker_ids = sorted(
            {r.worker_id for result in results for r in result.responses}
        )
        index_of = {wid: i for i, wid in enumerate(worker_ids)}
        # responses[q] = list of (worker_idx, label)
        responses = [
            [(index_of[r.worker_id], int(r.label)) for r in result.responses]
            for result in results
        ]
        posteriors = vote_fractions(
            [[label for _, label in resp] for resp in responses], self.n_classes
        )
        for _ in range(self.max_iter):
            prior, params = self._m_step(posteriors, responses, len(worker_ids))

            # E-step: posterior over true labels given the worker model.
            log_likelihood = self._log_likelihood(params)
            new_posteriors = np.tile(np.log(prior), (len(results), 1))
            for q, resp in enumerate(responses):
                for w, label in resp:
                    new_posteriors[q] += log_likelihood[w, :, label]
            new_posteriors -= new_posteriors.max(axis=1, keepdims=True)
            new_posteriors = np.exp(new_posteriors)
            new_posteriors /= new_posteriors.sum(axis=1, keepdims=True)

            shift = float(np.abs(new_posteriors - posteriors).max())
            posteriors = new_posteriors
            if shift < self.tol:
                break
        return posteriors, {wid: params[index_of[wid]] for wid in worker_ids}

    def label_distributions(self, results: list[QueryResult]) -> np.ndarray:
        """EM posteriors over each query's true label."""
        return self.fit(results)[0]

    @abstractmethod
    def _m_step(self, posteriors, responses, n_workers) -> tuple[np.ndarray, np.ndarray]:
        """(class prior, per-worker parameters) from the posteriors."""

    @abstractmethod
    def _log_likelihood(self, params: np.ndarray) -> np.ndarray:
        """``[w, j, l]`` = log P(worker w answers l | true label j)."""
