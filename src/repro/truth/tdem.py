"""Truth discovery via expectation-maximization (TD-EM).

A Dawid-Skene-style EM in the spirit of the maximum-likelihood truth
discovery of Wang et al. [29]: the E-step infers a posterior over each
query's true label from current worker reliabilities; the M-step re-estimates
each worker's reliability from the posteriors.  Jointly recovers labels and
worker quality, but degrades when each worker answers few queries — the
sparsity weakness the paper notes [44], reproduced here naturally because the
platform spreads queries over a large pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.truth.base import EMAggregator

__all__ = ["TruthDiscoveryEM"]


@dataclass
class TruthDiscoveryEM(EMAggregator):
    """EM-based joint estimation of true labels and worker reliability.

    The worker model is single-parameter ("one-coin"): with probability
    ``reliability`` the worker reports the true label, otherwise an error
    uniformly spread over the other classes.  :meth:`fit` returns each
    worker's reliability; ``smoothing`` keeps workers with one or two
    responses from collapsing to 0 or 1.
    """

    def _m_step(self, posteriors, responses, n_workers):
        # Reliability = expected fraction of matches, smoothed.
        match = np.full(n_workers, self.smoothing * 0.8)
        count = np.full(n_workers, self.smoothing)
        for q, resp in enumerate(responses):
            for w, label in resp:
                match[w] += posteriors[q, label]
                count[w] += 1.0
        reliability = np.clip(match / count, 0.05, 0.99)
        priors = np.clip(posteriors.mean(axis=0), 1e-6, None)
        priors /= priors.sum()
        return priors, reliability

    def _log_likelihood(self, reliability):
        k = self.n_classes
        log_error = np.log((1.0 - reliability) / (k - 1))
        return np.where(
            np.eye(k, dtype=bool),
            np.log(reliability)[:, None, None],
            log_error[:, None, None],
        )
