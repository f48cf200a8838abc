"""Information-theoretic quantities used by QSS and MIC.

Committee entropy (Definition 8, Eq. 3) measures how uncertain the weighted
committee is about a sample; symmetric KL divergence (Eq. 5) measures how far
an expert's label distribution is from the crowd's truthful label.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "entropy",
    "normalized_entropy",
    "batch_entropy",
    "batch_normalized_entropy",
    "kl_divergence",
    "symmetric_kl",
    "bounded_divergence",
    "batch_bounded_divergence",
]

_EPS = 1e-12


def _as_distribution(probs: np.ndarray, name: str) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64).ravel()
    if probs.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(probs < 0):
        raise ValueError(f"{name} has negative entries")
    total = probs.sum()
    if total <= 0:
        raise ValueError(f"{name} must have positive mass")
    return probs / total


def entropy(probs: np.ndarray, base: float | None = None) -> float:
    """Shannon entropy of a distribution (natural log by default).

    Inputs are renormalized so unnormalized committee votes can be passed
    directly, matching Eq. 3's use of the normalized committee vote.
    """
    p = _as_distribution(probs, "probs")
    nonzero = p[p > _EPS]
    value = float(-(nonzero * np.log(nonzero)).sum())
    if base is not None:
        value /= float(np.log(base))
    return value


def normalized_entropy(probs: np.ndarray) -> float:
    """Entropy scaled to [0, 1] by the maximum (uniform) entropy."""
    p = _as_distribution(probs, "probs")
    if p.size == 1:
        return 0.0
    return entropy(p) / float(np.log(p.size))


def _as_distribution_rows(probs: np.ndarray, name: str) -> np.ndarray:
    """Row-wise :func:`_as_distribution` for an ``(n, k)`` array."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError(f"{name} must be 2-D (n, k), got shape {probs.shape}")
    if probs.shape[1] == 0:
        raise ValueError(f"{name} rows must be non-empty")
    if np.any(probs < 0):
        raise ValueError(f"{name} has negative entries")
    totals = probs.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError(f"{name} rows must have positive mass")
    return probs / totals

def batch_entropy(probs: np.ndarray, base: float | None = None) -> np.ndarray:
    """Row-wise Shannon entropy of an ``(n, k)`` array, shape ``(n,)``.

    The vectorized form of :func:`entropy`, used on the committee's hot
    path (Eq. 3 over the whole image pool).  For the committee's small
    ``k`` the result is bit-identical to looping :func:`entropy` over the
    rows: each row is normalized by its own sum exactly as the scalar
    path does, sub-epsilon entries contribute an exact ``0.0`` (adding
    zeros to an IEEE sum of negative terms never changes it), and the
    row-axis reduction of a contiguous array matches the 1-D reduction.
    """
    p = _as_distribution_rows(probs, "probs")
    # Guard the log's domain with 1.0 where p is (near) zero; the masked
    # positions contribute exactly 0.0, mirroring the scalar filtering.
    safe = np.where(p > _EPS, p, 1.0)
    contributions = np.where(p > _EPS, p * np.log(safe), 0.0)
    values = -contributions.sum(axis=1)
    if base is not None:
        values = values / float(np.log(base))
    return values

def batch_normalized_entropy(probs: np.ndarray) -> np.ndarray:
    """Row-wise :func:`normalized_entropy` of an ``(n, k)`` array."""
    p = _as_distribution_rows(probs, "probs")
    if p.shape[1] == 1:
        return np.zeros(p.shape[0])
    # Mirror the scalar path exactly: normalize once here, then let
    # batch_entropy renormalize the already-normalized rows.
    return batch_entropy(p) / float(np.log(p.shape[1]))

def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) with epsilon smoothing so zero entries stay finite."""
    p = _as_distribution(p, "p")
    q = _as_distribution(q, "q")
    if p.shape != q.shape:
        raise ValueError(f"p and q must have the same shape: {p.shape} vs {q.shape}")
    p_s = np.clip(p, _EPS, None)
    q_s = np.clip(q, _EPS, None)
    return float((p_s * np.log(p_s / q_s)).sum())


def symmetric_kl(p: np.ndarray, q: np.ndarray) -> float:
    """Symmetric KL divergence: KL(p||q) + KL(q||p) (Eq. 5)."""
    return kl_divergence(p, q) + kl_divergence(q, p)


def bounded_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Symmetric KL mapped to [0, 1) via ``d / (1 + d)``.

    This is the normalization :math:`\\delta` in Eq. 5: the MIC loss needs a
    divergence on a [0, 1] scale so the exponential-weights update is stable.
    """
    divergence = symmetric_kl(p, q)
    return divergence / (1.0 + divergence)


def batch_bounded_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise :func:`bounded_divergence` of two ``(n, k)`` arrays, shape ``(n,)``.

    The vectorized form MIC's Eq. 5 losses and adaptive QSS's surprise
    use.  Bit-identical to looping :func:`bounded_divergence` over the row
    pairs, by :func:`batch_entropy`'s argument: each row is normalized by
    its own sum, the clip, ratio and log are elementwise on contiguous
    arrays, each KL term is a row-axis sum of a contiguous array, and the
    two KL terms and the ``d / (1 + d)`` map are the same IEEE operations
    on the same operands.
    """
    p = _as_distribution_rows(p, "p")
    q = _as_distribution_rows(q, "q")
    if p.shape != q.shape:
        raise ValueError(f"p and q must have the same shape: {p.shape} vs {q.shape}")
    p_s = np.clip(p, _EPS, None)
    q_s = np.clip(q, _EPS, None)
    divergence = (p_s * np.log(p_s / q_s)).sum(axis=1) + (
        q_s * np.log(q_s / p_s)
    ).sum(axis=1)
    return divergence / (1.0 + divergence)
