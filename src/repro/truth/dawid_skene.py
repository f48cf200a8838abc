"""Full Dawid-Skene truth discovery (confusion-matrix worker model).

An upgrade over the one-coin :class:`~repro.truth.tdem.TruthDiscoveryEM`:
each worker gets a full per-class confusion matrix π_w[j, l] = P(worker
answers l | truth is j), so systematic biases — e.g. workers who always
escalate moderate damage to severe — are modeled rather than averaged away.
Kept separate from TD-EM because the paper's Table I baseline is the
simpler reliability-only model; this class is this repo's extension for
users with enough responses per worker to fit 9 parameters each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.truth.base import EMAggregator

__all__ = ["DawidSkene"]


@dataclass
class DawidSkene(EMAggregator):
    """EM over per-worker confusion matrices (Dawid & Skene, 1979).

    :meth:`fit` returns each worker's ``(n_classes, n_classes)``
    row-stochastic confusion matrix.  ``smoothing`` is the Dirichlet
    pseudo-count added to confusion-matrix rows, biased toward the diagonal
    so sparsely observed workers default to "mostly correct" rather than to
    noise.
    """

    max_iter: int = 60

    def _m_step(self, posteriors, responses, n_workers):
        k = self.n_classes
        # Diagonal-biased Dirichlet prior: sparse workers default reliable.
        prior = self.smoothing * (
            np.full((k, k), 0.5 / (k - 1)) + np.eye(k) * (2.0 - 0.5)
        )
        counts = np.tile(prior, (n_workers, 1, 1))
        for q, resp in enumerate(responses):
            for w, label in resp:
                counts[w, :, label] += posteriors[q]
        confusion = counts / counts.sum(axis=2, keepdims=True)
        class_prior = np.clip(posteriors.mean(axis=0), 1e-9, None)
        class_prior /= class_prior.sum()
        return class_prior, confusion

    def _log_likelihood(self, confusion):
        return np.log(np.clip(confusion, 1e-12, None))
