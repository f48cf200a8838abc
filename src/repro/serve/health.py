"""Per-event health model and the service's degradation ladder.

The breaker (:mod:`repro.serve.breaker`) is binary — an event either may
tick or may not.  Operations needs more shades than that: an event whose
platform is *flaky* should shrink its crowd footprint before it earns a
quarantine, and a recovering event should climb back gradually rather
than slam straight to full batches.  :class:`EventHealth` layers that
ladder on top of the breaker::

    HEALTHY   ── full query batch (the grant, untouched)
    DEGRADED  ── reduced batch: ceil(grant · DEGRADED_FRACTION)
    BROWNOUT  ── committee-only: grant forced to 0 (PR 7's zero-grant
                 fallback, now an explicit health state)
    QUARANTINED ─ parked: no ticks at all (breaker open)

Demotion is driven by an EWMA of the per-tick failure signal and is
immediate; promotion requires the EWMA back under a strictly lower
threshold *and* ``READMIT_STREAK`` consecutive clean ticks — the same
hysteresis shape as PR 3's committee quarantine, so one good tick never
re-admits a still-sick event.  A closing breaker re-enters the ladder at
BROWNOUT and must climb rung by rung.

Every number here is derived from tick outcomes and the virtual-time
window counter; there is no wall clock and no RNG, so health state
journals exactly and resumes bit-for-bit.
"""

from __future__ import annotations

import math

from repro.core.system import CycleOutcome
from repro.serve.breaker import MAX_PROBE_ROUNDS, CircuitBreaker
from repro.serve.breaker import POLICY as BREAKER_POLICY
from repro.serve.breaker import WINDOW as BREAKER_WINDOW

__all__ = [
    "HEALTH_STATES",
    "EventHealth",
    "tick_failed",
]

#: Ladder order, healthiest first.
HEALTH_STATES: tuple[str, ...] = (
    "healthy", "degraded", "brownout", "quarantined",
)

#: Ladder rungs the EWMA moves between while the breaker is closed.
_RUNGS: tuple[str, ...] = ("healthy", "degraded", "brownout")

#: Weight of the newest tick in the failure EWMA.
EWMA_ALPHA = 0.5
#: Demote to DEGRADED / BROWNOUT when the failure EWMA reaches these.
DEGRADED_ENTER = 0.35
BROWNOUT_ENTER = 0.7
#: Promote out of a rung only at or below these (strictly lower than the
#: matching ``*_ENTER``: hysteresis).
DEGRADED_EXIT = 0.15
BROWNOUT_EXIT = 0.4
#: Consecutive clean ticks a promotion also waits for.
READMIT_STREAK = 2
#: Share of the grant a DEGRADED event keeps (rounded up, at least 1).
DEGRADED_FRACTION = 0.5

#: The ladder and breaker thresholds in the form older serve manifests
#: recorded them under ``health_policy``; resume refuses a manifest whose
#: recorded thresholds differ.
POLICY: dict = {
    "breaker": BREAKER_POLICY,
    "ewma_alpha": EWMA_ALPHA,
    "degraded_enter": DEGRADED_ENTER,
    "degraded_exit": DEGRADED_EXIT,
    "brownout_enter": BROWNOUT_ENTER,
    "brownout_exit": BROWNOUT_EXIT,
    "readmit_streak": READMIT_STREAK,
    "degraded_fraction": DEGRADED_FRACTION,
}


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


class EventHealth:
    """One event's position on the ladder, owning its breaker."""

    def __init__(self) -> None:
        self.breaker = CircuitBreaker()
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
        return max(1, min(int(grant), math.ceil(grant * DEGRADED_FRACTION)))

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
            -BREAKER_WINDOW:
        ]
        rate = sum(tripping) / len(tripping)
        transition = breaker.record(failure, window)
        self.ewma = (
            EWMA_ALPHA * (1.0 if failure else 0.0)
            + (1.0 - EWMA_ALPHA) * self.ewma
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
        self.breaker.probe_rounds = MAX_PROBE_ROUNDS
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
        if self.ewma >= BROWNOUT_ENTER:
            worse = _RUNGS.index("brownout")
        elif self.ewma >= DEGRADED_ENTER:
            worse = _RUNGS.index("degraded")
        else:
            worse = 0
        if worse > self.rung:
            self.rung = worse
            self.streak = 0
            return
        if self.rung == 0 or self.streak < READMIT_STREAK:
            return
        # Promotion: one rung at a time, only past the exit threshold.
        if self.rung == _RUNGS.index("brownout"):
            if self.ewma <= BROWNOUT_EXIT:
                self.rung -= 1
                self.streak = 0
        elif self.rung == _RUNGS.index("degraded"):
            if self.ewma <= DEGRADED_EXIT:
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
    def restore(cls, state: dict) -> "EventHealth":
        """Rebuild bit-for-bit from :meth:`snapshot` output."""
        health = cls()
        health.breaker = CircuitBreaker.restore(state["breaker"])
        health.ewma = float(state["ewma"])
        health.streak = int(state["streak"])
        health.rung = int(state["rung"])
        health.quarantine_reason = state["quarantine_reason"]
        health.transitions_total = int(state["transitions_total"])
        return health
