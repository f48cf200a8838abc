"""Query Set Selection (Algorithm 1).

QSS picks the data samples to send to the crowd.  The base strategy is
committee-entropy ranking (query the samples the committee is most uncertain
about); the ε-greedy twist occasionally queries a *random* remaining sample,
which is what catches the confident-but-wrong failure cases (e.g. all
experts calling a fake image "severe" with high confidence).

:class:`AdaptiveQuerySetSelector` extends this with the value-difference
based exploration (VDBE) scheme of Tokic & Palm — the ε-greedy/softmax
control technique the paper cites for its exploration strategy [37]: ε is
no longer a constant but adapts to how much the crowd's feedback *surprises*
the committee.  Large divergence between committee votes and truthful labels
means the committee is confidently wrong somewhere, so exploration should
rise; feedback that matches the committee means entropy ranking is already
finding everything, so exploration decays.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_probability

__all__ = ["QuerySetSelector", "AdaptiveQuerySetSelector"]


class QuerySetSelector:
    """ε-greedy committee-entropy query selection.

    Parameters
    ----------
    epsilon:
        Probability of exploring (picking a random remaining sample) at
        each of the Y selection slots.
    """

    def __init__(self, epsilon: float = 0.2) -> None:
        check_probability(epsilon, "epsilon")
        self.epsilon = epsilon

    def select(
        self,
        committee_entropy: np.ndarray,
        query_size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Select ``query_size`` sample indices to query the crowd about.

        Follows Algorithm 1: sort samples by committee entropy (high to low);
        at each slot take the highest-entropy remaining sample with
        probability 1-ε, or a uniformly random remaining sample with
        probability ε.

        Returns the selected indices (into the entropy array), in selection
        order.
        """
        committee_entropy = np.asarray(committee_entropy, dtype=np.float64).ravel()
        n = committee_entropy.shape[0]
        if not 0 <= query_size <= n:
            raise ValueError(
                f"query_size must be in [0, {n}], got {query_size}"
            )
        if query_size == 0:
            return np.empty(0, dtype=np.int64)
        # s_list: indices sorted by entropy, highest first.  Selection uses
        # an alive-mask over the sorted ranks instead of popping from a
        # Python list (which is O(n) per slot): the greedy path advances a
        # head pointer, the exploration path indexes the k-th alive rank.
        # The RNG draw sequence is exactly the historical one — one
        # ``random()`` per slot, plus one ``integers(n_alive)`` only when
        # exploring with more than one sample left — so selections are
        # bit-identical to the list-based implementation.
        order = np.argsort(-committee_entropy, kind="stable")
        alive = np.ones(n, dtype=bool)
        head = 0
        n_alive = n
        selected = np.empty(query_size, dtype=np.int64)
        for slot in range(query_size):
            if rng.random() < self.epsilon and n_alive > 1:
                rank = int(np.flatnonzero(alive)[rng.integers(n_alive)])
            else:
                while not alive[head]:
                    head += 1
                rank = head
            alive[rank] = False
            n_alive -= 1
            selected[slot] = order[rank]
        return selected


class AdaptiveQuerySetSelector(QuerySetSelector):
    """ε-greedy QSS with value-difference based exploration (VDBE) [37].

    After each sensing cycle the caller feeds back a *surprise* signal — the
    mean bounded divergence between the committee's votes and CQC's truthful
    labels on the query set (exactly the quantity MIC already computes for
    Eq. 5).  ε then follows Tokic & Palm's update:

        ε ← δ · f(surprise) + (1 − δ) · ε,
        f(surprise) = (1 − exp(−surprise / σ)) / (1 + exp(−surprise / σ))

    so sustained surprise drives ε toward 1 (the committee cannot be trusted
    to know what it doesn't know) and sustained agreement decays ε toward 0
    (pure entropy ranking suffices).

    Parameters
    ----------
    initial_epsilon:
        Starting exploration rate.
    delta:
        Update step (Tokic's δ, typically 1/number-of-actions; here a small
        constant since the "action space" is the whole image pool).
    sigma:
        Inverse sensitivity of the Boltzmann-like squashing: smaller sigma
        makes small surprises push harder toward exploration.
    epsilon_bounds:
        Hard clamp on ε, keeping some exploration forever and bounding cost.
    """

    def __init__(
        self,
        initial_epsilon: float = 0.2,
        delta: float = 0.3,
        sigma: float = 0.2,
        epsilon_bounds: tuple[float, float] = (0.05, 0.8),
    ) -> None:
        super().__init__(epsilon=initial_epsilon)
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {delta}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        low, high = epsilon_bounds
        if not 0.0 <= low < high <= 1.0:
            raise ValueError(f"invalid epsilon bounds: {epsilon_bounds}")
        self.delta = delta
        self.sigma = sigma
        self.epsilon_bounds = (float(low), float(high))

    def observe_surprise(self, surprise: float) -> float:
        """Update ε from one cycle's feedback; returns the new ε.

        ``surprise`` is a non-negative divergence (e.g. the mean bounded
        symmetric KL between committee votes and truthful labels, already
        in [0, 1) when it comes from MIC's loss).
        """
        if surprise < 0:
            raise ValueError(f"surprise must be >= 0, got {surprise}")
        exp_term = float(np.exp(-surprise / self.sigma))
        target = (1.0 - exp_term) / (1.0 + exp_term)
        epsilon = self.delta * target + (1.0 - self.delta) * self.epsilon
        low, high = self.epsilon_bounds
        self.epsilon = float(np.clip(epsilon, low, high))
        return self.epsilon
