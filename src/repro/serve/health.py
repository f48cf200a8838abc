"""Per-event health model and the service's degradation ladder.

The breaker (:mod:`repro.serve.breaker`) is binary — an event either may
tick or may not.  Operations needs more shades than that: an event whose
platform is *flaky* should shrink its crowd footprint before it earns a
quarantine, and a recovering event should climb back gradually rather
than slam straight to full batches.  :class:`EventHealth` layers that
ladder on top of the breaker::

    HEALTHY   ── full query batch (the grant, untouched)
    DEGRADED  ── reduced batch: ceil(grant · degraded_fraction)
    BROWNOUT  ── committee-only: grant forced to 0 (PR 7's zero-grant
                 fallback, now an explicit health state)
    QUARANTINED ─ parked: no ticks at all (breaker open)

Demotion is driven by an EWMA of the per-tick failure signal and is
immediate; promotion requires the EWMA back under a strictly lower
threshold *and* ``readmit_streak`` consecutive clean ticks — the same
hysteresis shape as PR 3's committee quarantine, so one good tick never
re-admits a still-sick event.  A closing breaker re-enters the ladder at
BROWNOUT and must climb rung by rung.

Every number here is derived from tick outcomes and the virtual-time
window counter; there is no wall clock and no RNG, so health state
journals exactly and resumes bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.system import CycleOutcome
from repro.serve.breaker import BreakerPolicy, CircuitBreaker

__all__ = [
    "HEALTH_STATES",
    "HealthPolicy",
    "EventHealth",
    "tick_failed",
]

#: Ladder order, healthiest first.
HEALTH_STATES: tuple[str, ...] = (
    "healthy", "degraded", "brownout", "quarantined",
)

#: Ladder rungs the EWMA moves between while the breaker is closed.
_RUNGS: tuple[str, ...] = ("healthy", "degraded", "brownout")


def tick_failed(outcome: CycleOutcome) -> bool:
    """The breaker's failure signal for one completed sensing cycle.

    A tick fails when the platform misbehaved (outages hit, queries
    dropped after retries, all-late queries) or the model layer had to
    roll a retrain back — exactly the interventions PR 1/3/5 count.
    Committee fallbacks and refunds alone are *not* failures: they are
    the degraded modes working as designed.
    """
    return (
        outcome.resilience.platform_failures() > 0
        or outcome.guards.rollbacks > 0
    )


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds for the ladder plus the embedded breaker policy.

    ``*_enter`` demotes when the failure EWMA reaches it; the matching
    ``*_exit`` must be strictly lower (hysteresis), and promotion also
    waits for ``readmit_streak`` consecutive clean ticks.
    """

    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    ewma_alpha: float = 0.5
    degraded_enter: float = 0.35
    degraded_exit: float = 0.15
    brownout_enter: float = 0.7
    brownout_exit: float = 0.4
    readmit_streak: int = 2
    degraded_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        for enter, exit_, name in (
            (self.degraded_enter, self.degraded_exit, "degraded"),
            (self.brownout_enter, self.brownout_exit, "brownout"),
        ):
            if not 0.0 < enter <= 1.0:
                raise ValueError(
                    f"{name}_enter must be in (0, 1], got {enter}"
                )
            if not 0.0 <= exit_ < enter:
                raise ValueError(
                    f"{name}_exit must sit below {name}_enter for "
                    f"hysteresis, got {exit_} >= {enter}"
                )
        if self.degraded_enter >= self.brownout_enter:
            raise ValueError(
                "degraded_enter must be below brownout_enter, got "
                f"{self.degraded_enter} >= {self.brownout_enter}"
            )
        if self.readmit_streak < 1:
            raise ValueError(
                f"readmit_streak must be >= 1, got {self.readmit_streak}"
            )
        if not 0.0 < self.degraded_fraction <= 1.0:
            raise ValueError(
                f"degraded_fraction must be in (0, 1], got "
                f"{self.degraded_fraction}"
            )

    def as_dict(self) -> dict:
        """JSON-safe form (manifest round-trip)."""
        return {
            "breaker": self.breaker.as_dict(),
            "ewma_alpha": self.ewma_alpha,
            "degraded_enter": self.degraded_enter,
            "degraded_exit": self.degraded_exit,
            "brownout_enter": self.brownout_enter,
            "brownout_exit": self.brownout_exit,
            "readmit_streak": self.readmit_streak,
            "degraded_fraction": self.degraded_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthPolicy":
        """Inverse of :meth:`as_dict` (ignores unknown keys)."""
        names = set(cls.__dataclass_fields__) - {"breaker"}
        kwargs = {k: v for k, v in data.items() if k in names}
        if "breaker" in data:
            kwargs["breaker"] = BreakerPolicy.from_dict(data["breaker"])
        return cls(**kwargs)


class EventHealth:
    """One event's position on the ladder, owning its breaker."""

    def __init__(self, policy: HealthPolicy | None = None) -> None:
        self.policy = policy if policy is not None else HealthPolicy()
        self.breaker = CircuitBreaker(self.policy.breaker)
        self.ewma: float = 0.0
        #: Consecutive clean ticks (promotion currency).
        self.streak: int = 0
        #: Ladder rung while the breaker is closed (index into _RUNGS).
        self.rung: int = 0
        #: Why the event was last quarantined (operator-facing).
        self.quarantine_reason: str | None = None
        #: Lifetime ladder transitions, for telemetry.
        self.transitions_total: int = 0

    # -- the externally visible state --------------------------------------

    @property
    def state(self) -> str:
        """Current ladder state; the breaker always wins."""
        if self.breaker.state == "open":
            return "quarantined"
        if self.breaker.state == "half_open":
            # A probe runs with a degraded-size batch: enough traffic to
            # observe the platform, small enough to bound the blast.
            return "degraded"
        return _RUNGS[self.rung]

    def cap_grant(self, grant: int) -> int:
        """The pool's grant after this event's health cap."""
        state = self.state
        if state == "healthy":
            return grant
        if state == "degraded":
            return self._degraded(grant)
        return 0  # brownout / quarantined post nothing

    def _degraded(self, grant: int) -> int:
        if grant <= 0:
            return 0
        frac = self.policy.degraded_fraction
        return max(1, min(int(grant), math.ceil(grant * frac)))

    def demand_cap(self, want: int) -> int:
        """Cap a *window request* the same way :meth:`cap_grant` caps a
        grant, so brownout events free their share up front.  A
        quarantined event with a probe pending requests a degraded-size
        batch — the probe tick runs half-open, which caps like DEGRADED.
        """
        if (
            self.breaker.state == "open"
            and self.breaker.probe_window() is not None
        ):
            return self._degraded(want)
        return self.cap_grant(want)

    # -- inputs ------------------------------------------------------------

    def observe(self, failure: bool, window: int) -> str:
        """Fold one completed tick into the ladder; returns the new state."""
        before = self.state
        breaker = self.breaker
        # The rate that can trip the breaker includes this tick; compute
        # it up front because opening clears the sliding window.
        tripping = (breaker.outcomes + [1 if failure else 0])[
            -breaker.policy.window:
        ]
        rate = sum(tripping) / len(tripping)
        transition = breaker.record(failure, window)
        self.ewma = (
            self.policy.ewma_alpha * (1.0 if failure else 0.0)
            + (1.0 - self.policy.ewma_alpha) * self.ewma
        )
        self.streak = 0 if failure else self.streak + 1
        if transition == "open":
            self.quarantine_reason = (
                "breaker opened: failure rate "
                f"{rate:.2f} over the sliding window"
                if before != "degraded"
                else "probe tick failed; breaker re-opened"
            )
        elif transition == "closed":
            # Re-enter through brownout and climb by hysteresis.
            self.rung = _RUNGS.index("brownout")
            self.streak = 0
            self.quarantine_reason = None
        elif self.breaker.state == "closed":
            self._move_rung()
        after = self.state
        if after != before:
            self.transitions_total += 1
        return after

    def trip(self, window: int, reason: str) -> str:
        """Bulkhead trip: the tick raised; quarantine immediately.

        Terminal: the cycle never completed, so the event's in-memory
        system may be mid-cycle dirty and re-running it would diverge
        from (or identically repeat) the failure.  The probe budget is
        spent up front — no half-open re-admission — unlike a breaker
        opened by completed-but-failing ticks, which probes after its
        cooldown.
        """
        before = self.state
        self.breaker.force_open(window)
        self.breaker.probe_rounds = self.policy.breaker.max_probe_rounds
        self.ewma = 1.0
        self.streak = 0
        self.quarantine_reason = reason
        if self.state != before:
            self.transitions_total += 1
        return self.state

    def begin_probe(self, window: int) -> bool:
        """Half-open the breaker for a probe tick, if one is due."""
        return self.breaker.try_half_open(window)

    def _move_rung(self) -> None:
        policy = self.policy
        if self.ewma >= policy.brownout_enter:
            worse = _RUNGS.index("brownout")
        elif self.ewma >= policy.degraded_enter:
            worse = _RUNGS.index("degraded")
        else:
            worse = 0
        if worse > self.rung:
            self.rung = worse
            self.streak = 0
            return
        if self.rung == 0 or self.streak < policy.readmit_streak:
            return
        # Promotion: one rung at a time, only past the exit threshold.
        if self.rung == _RUNGS.index("brownout"):
            if self.ewma <= policy.brownout_exit:
                self.rung -= 1
                self.streak = 0
        elif self.rung == _RUNGS.index("degraded"):
            if self.ewma <= policy.degraded_exit:
                self.rung -= 1
                self.streak = 0

    # -- persistence -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe full state for the serve journal."""
        return {
            "breaker": self.breaker.snapshot(),
            "ewma": self.ewma,
            "streak": self.streak,
            "rung": self.rung,
            "quarantine_reason": self.quarantine_reason,
            "transitions_total": self.transitions_total,
            "state": self.state,  # derived; journaled for operators
        }

    @classmethod
    def restore(
        cls, state: dict, policy: HealthPolicy | None = None
    ) -> "EventHealth":
        """Rebuild bit-for-bit from :meth:`snapshot` output."""
        health = cls(policy)
        health.breaker = CircuitBreaker.restore(state["breaker"])
        health.ewma = float(state["ewma"])
        health.streak = int(state["streak"])
        health.rung = int(state["rung"])
        health.quarantine_reason = state["quarantine_reason"]
        health.transitions_total = int(state["transitions_total"])
        return health
