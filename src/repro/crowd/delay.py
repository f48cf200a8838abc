"""Response-delay model, calibrated to the paper's pilot study (Figure 5).

The pilot's observations, which this model encodes:

- **morning / afternoon** — workers are scarce and selective, so delay falls
  steadily as the incentive rises;
- **evening / midnight** — workers are plentiful, so all mid-range incentives
  behave alike: only the very lowest incentive is slower and the very highest
  slightly faster.

Individual responses draw lognormal noise around the context/incentive mean,
scaled by the worker's personal speed factor.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.clock import TemporalContext

__all__ = [
    "INCENTIVE_LEVELS",
    "DelayModel",
    "check_incentive",
    "interpolate_levels",
]

#: The paper's seven pilot incentive levels, in cents.
INCENTIVE_LEVELS: tuple[float, ...] = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0)

# Mean response delay (seconds) per (context, incentive level).  Shapes match
# Figure 5; magnitudes are anchored so a budget-matched fixed policy lands
# near the paper's Table III crowd delays.
_MEAN_DELAY: dict[TemporalContext, dict[float, float]] = {
    TemporalContext.MORNING: {
        1.0: 1150.0, 2.0: 1000.0, 4.0: 840.0, 6.0: 720.0,
        8.0: 620.0, 10.0: 540.0, 20.0: 270.0,
    },
    TemporalContext.AFTERNOON: {
        1.0: 1050.0, 2.0: 900.0, 4.0: 770.0, 6.0: 660.0,
        8.0: 570.0, 10.0: 500.0, 20.0: 255.0,
    },
    TemporalContext.EVENING: {
        1.0: 700.0, 2.0: 330.0, 4.0: 325.0, 6.0: 322.0,
        8.0: 325.0, 10.0: 320.0, 20.0: 295.0,
    },
    TemporalContext.MIDNIGHT: {
        1.0: 750.0, 2.0: 345.0, 4.0: 338.0, 6.0: 335.0,
        8.0: 338.0, 10.0: 330.0, 20.0: 305.0,
    },
}
_LEVELS = np.array(INCENTIVE_LEVELS)
_LOG_LEVELS = np.log(_LEVELS)
_MEANS = {
    context: np.array([table[level] for level in INCENTIVE_LEVELS])
    for context, table in _MEAN_DELAY.items()
}
# (context, incentive) -> mean delay, filled on first use.  Kept at module
# level, next to the tables it is derived from, so pickled models never
# carry it; its keys are the few incentive levels a deployment prices.
_MEAN_MEMO: dict[tuple[TemporalContext, float], float] = {}


def interpolate_levels(incentive_cents: float, values: np.ndarray) -> float:
    """``values`` (one per pilot level) interpolated in log-incentive at
    ``incentive_cents``, clamped to the outermost levels: incentive
    effects are multiplicative."""
    log_level = np.log(np.clip(incentive_cents, _LEVELS[0], _LEVELS[-1]))
    return float(np.interp(log_level, _LOG_LEVELS, values))


def check_incentive(incentive_cents: float) -> None:
    """Refuse an incentive the pilot tables cannot price.

    NaN would interpolate to NaN (``nan <= 0`` is False) and infinity
    would silently price at the top level, so both raise ``ValueError``
    like a non-positive incentive does.
    """
    if not math.isfinite(incentive_cents) or incentive_cents <= 0:
        raise ValueError(
            f"incentive must be positive and finite, got {incentive_cents}"
        )


class DelayModel:
    """Samples worker response delays for (context, incentive) pairs.

    Parameters
    ----------
    noise_sigma:
        Sigma of the lognormal multiplicative noise on each response.
    """

    def __init__(self, noise_sigma: float = 0.30) -> None:
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
        self.noise_sigma = noise_sigma

    def mean_delay(self, context: TemporalContext, incentive_cents: float) -> float:
        """Expected delay in seconds, interpolating between pilot levels.

        Computed once per distinct ``(context, incentive)`` and memoized; a
        non-finite or non-positive incentive raises ``ValueError``.
        """
        check_incentive(incentive_cents)
        key = (context, incentive_cents)
        value = _MEAN_MEMO.get(key)
        if value is None:
            value = interpolate_levels(incentive_cents, _MEANS[context])
            _MEAN_MEMO[key] = value
        return value

    def sample(
        self,
        context: TemporalContext,
        incentive_cents: float,
        rng: np.random.Generator,
        worker_speed: float = 1.0,
    ) -> float:
        """Draw one response delay.

        ``worker_speed`` scales the mean (a value of 2 means twice as fast).
        """
        if worker_speed <= 0:
            raise ValueError(f"worker_speed must be positive, got {worker_speed}")
        mean = self.mean_delay(context, incentive_cents) / worker_speed
        # Lognormal parameterized so the *mean* equals ``mean``.
        mu = np.log(mean) - 0.5 * self.noise_sigma**2
        return float(rng.lognormal(mu, self.noise_sigma))
