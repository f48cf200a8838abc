"""Label-quality model, calibrated to the paper's pilot study (Figure 6).

The pilot found that very low incentives (1-2 cents) depress label quality,
but past ~2 cents quality plateaus around 80% (Wilcoxon tests between
adjacent levels non-significant).  The model expresses this as an additive
effort offset applied to each worker's intrinsic reliability.
"""

from __future__ import annotations

import numpy as np

from repro.crowd.delay import INCENTIVE_LEVELS, check_incentive, interpolate_levels

__all__ = ["QualityModel", "clamp"]

# Additive accuracy offset per pilot incentive level.  Tuned so the
# population-average accuracy traces Figure 6: ~0.65 at 1c, ~0.76 at 2c,
# plateau ~0.80-0.82 above.
_QUALITY_OFFSET: dict[float, float] = {
    1.0: -0.15,
    2.0: -0.04,
    4.0: -0.010,
    6.0: 0.000,
    8.0: 0.000,
    10.0: 0.005,
    20.0: 0.015,
}
_OFFSETS = np.array([_QUALITY_OFFSET[level] for level in INCENTIVE_LEVELS])
# incentive -> offset, filled on first use.  The tables are module
# constants, so the memo lives here rather than on (pickled) models, and
# its keys are the few incentive levels a deployment ever prices.
_OFFSET_MEMO: dict[float, float] = {}


class QualityModel:
    """Maps incentives to the effort offset on worker accuracy."""

    def offset(self, incentive_cents: float) -> float:
        """Additive accuracy offset for ``incentive_cents``.

        Interpolated in log-incentive between the pilot levels and clamped
        to the outermost ones.  Computed once per distinct incentive and
        memoized; a non-finite or non-positive incentive raises
        ``ValueError``.
        """
        check_incentive(incentive_cents)
        value = _OFFSET_MEMO.get(incentive_cents)
        if value is None:
            value = interpolate_levels(incentive_cents, _OFFSETS)
            _OFFSET_MEMO[incentive_cents] = value
        return value

    def effective_accuracy(
        self, reliability: float, incentive_cents: float
    ) -> float:
        """A worker's label accuracy under a given incentive.

        Clipped to [0.05, 0.98]: even careless workers beat random guessing
        slightly, and nobody is perfect.
        """
        if not 0.0 <= reliability <= 1.0:
            raise ValueError(f"reliability must be in [0, 1], got {reliability}")
        return clamp(float(reliability + self.offset(incentive_cents)), 0.05, 0.98)


def clamp(value: float, low: float, high: float) -> float:
    """``np.clip`` for one non-NaN float, without the array round trip."""
    return min(max(value, low), high)
