"""Argument-validation helpers shared across the library.

Validation failures raise :class:`ValueError`/:class:`TypeError` with messages
that name the offending argument, so misuse surfaces at the public API
boundary instead of deep inside numpy broadcasting.
"""

from __future__ import annotations

import math
import operator

__all__ = [
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_integer",
    "check_in_range",
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


def check_integer(value: int, name: str = "value", minimum: int = 0) -> int:
    """Validate that ``value`` is an integer >= ``minimum``; return it.

    Python and numpy integers pass.  Floats (NaN, ±inf and integral ones
    alike), booleans and anything else without ``__index__`` are refused.
    """
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if number >= minimum:
                return number
    raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_in_range(
    value: float, low: float, high: float, name: str = "value"
) -> float:
    """Validate that ``value`` lies in the closed interval [low, high]."""
    value = float(value)
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value
