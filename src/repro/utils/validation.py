"""Argument-validation helpers shared across the library.

Validation failures raise :class:`ValueError`/:class:`TypeError` with messages
that name the offending argument, so misuse surfaces at the public API
boundary instead of deep inside numpy broadcasting.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_array_shape",
    "check_distribution",
    "as_float_array",
]


def check_probability(value: float, name: str = "value") -> float:
    """Validate that ``value`` lies in [0, 1] and return it as a float."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_positive(value: float, name: str = "value") -> float:
    """Validate that ``value`` is finite and strictly positive; return it."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def check_non_negative(value: float, name: str = "value") -> float:
    """Validate that ``value`` is finite and >= 0; return it."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def check_in_range(
    value: float, low: float, high: float, name: str = "value"
) -> float:
    """Validate that ``value`` lies in the closed interval [low, high]."""
    value = float(value)
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_array_shape(
    array: np.ndarray, shape: Sequence[int | None], name: str = "array"
) -> np.ndarray:
    """Validate ``array`` has rank and dimensions matching ``shape``.

    ``None`` entries in ``shape`` match any size along that axis.
    """
    array = np.asarray(array)
    if array.ndim != len(shape):
        raise ValueError(
            f"{name} must have {len(shape)} dimensions, got shape {array.shape}"
        )
    for axis, (actual, expected) in enumerate(zip(array.shape, shape)):
        if expected is not None and actual != expected:
            raise ValueError(
                f"{name} axis {axis} must have size {expected}, "
                f"got shape {array.shape}"
            )
    return array


def check_distribution(
    probs: np.ndarray, name: str = "distribution", atol: float = 1e-6
) -> np.ndarray:
    """Validate a 1-D probability distribution (non-negative, sums to 1)."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {probs.shape}")
    if probs.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(probs < -atol):
        raise ValueError(f"{name} has negative entries: {probs}")
    total = float(probs.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"{name} must sum to 1, got {total}")
    return np.clip(probs, 0.0, None)


def as_float_array(data: object, name: str = "data") -> np.ndarray:
    """Convert ``data`` to a float64 numpy array, rejecting non-finite values."""
    array = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return array
