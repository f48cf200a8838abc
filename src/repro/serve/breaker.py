"""Deterministic per-event circuit breaker for the serving layer.

A quarantined deployment must not keep burning shared crowd capacity on
a platform that is down, a workload that poisons its own cycles, or a
model that rolls back every retrain.  The classic remedy is a circuit
breaker per dependency; here the "dependency" is one event's whole
sensing loop, and the breaker's clock is the service's *virtual-time*
window counter — never the wall clock — so every transition is a pure
function of the tick history and replays bit-for-bit on
:meth:`~repro.serve.service.CrowdLearnService.resume`.

States and legal transitions::

    closed ──(failure rate over the sliding window ≥ threshold,
              or a bulkhead trip)──▶ open
    open ──(COOLDOWN_WINDOWS sensing windows elapse; probe budget
            left)──▶ half_open
    half_open ──(probe tick clean)──▶ closed
    half_open ──(probe tick fails)──▶ open

No other transition exists — the property test in
``tests/property/test_breaker_properties.py`` drives arbitrary
failure/success sequences through the machine and asserts exactly this.

A *failure* is a completed tick that saw platform errors, timeouts or
guard rollbacks (see :func:`repro.serve.health.tick_failed`), or a tick
whose exception the service's bulkhead caught (:meth:`force_open`).
``MAX_PROBE_ROUNDS`` bounds the open→half_open cycle so a permanently
faulted event converges to "open, probes exhausted" and ``drain()``
terminates instead of probing forever.
"""

from __future__ import annotations

__all__ = ["CircuitBreaker", "BREAKER_STATES"]

#: The three breaker states, in ladder order.
BREAKER_STATES: tuple[str, ...] = ("closed", "open", "half_open")

#: The only edges the state machine may take.
LEGAL_TRANSITIONS: frozenset[tuple[str, str]] = frozenset(
    {
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
        ("half_open", "open"),
    }
)

#: Sliding window of completed ticks the failure rate is computed over.
WINDOW = 6
#: Open when ``failures / samples`` in the window reaches this.
FAILURE_THRESHOLD = 0.5
#: Never open on fewer samples (one unlucky first tick must not
#: quarantine a fresh event).
MIN_SAMPLES = 3
#: Sensing windows (virtual time, not ticks) the breaker stays open
#: before a half-open probe may run.
COOLDOWN_WINDOWS = 2
#: Consecutive clean probe ticks required to close again.
PROBE_SUCCESSES = 1
#: Open→half_open rounds allowed before the event is parked for good
#: (bounds ``drain()`` under a permanent fault).
MAX_PROBE_ROUNDS = 2

#: The thresholds as every breaker snapshot journals them.  Serve-journal
#: record hashes cover this dict, so its keys, values and types are part
#: of the durable format; :meth:`CircuitBreaker.restore` refuses any other.
POLICY: dict = {
    "window": WINDOW,
    "failure_threshold": FAILURE_THRESHOLD,
    "min_samples": MIN_SAMPLES,
    "cooldown_windows": COOLDOWN_WINDOWS,
    "probe_successes": PROBE_SUCCESSES,
    "max_probe_rounds": MAX_PROBE_ROUNDS,
}


class CircuitBreaker:
    """One event's breaker; all state is JSON-serializable and exact.

    The machine consumes two inputs only: :meth:`record` with a tick's
    boolean failure signal plus the sensing window it ran in, and
    :meth:`try_half_open` with the current window (the service calls it
    when a scheduled probe entry pops off the virtual-time heap).
    :meth:`force_open` is the bulkhead's hammer for ticks that never
    completed at all.
    """

    def __init__(self) -> None:
        self.state: str = "closed"
        #: Sliding window of 0/1 failure outcomes (most recent last).
        self.outcomes: list[int] = []
        #: Sensing window of the most recent close→open transition.
        self.opened_at: int | None = None
        self.probe_streak: int = 0
        self.probe_rounds: int = 0
        #: Lifetime transition counts, for telemetry and the bench report.
        self.opened_total: int = 0
        self.half_open_total: int = 0
        self.closed_total: int = 0

    # -- inputs ------------------------------------------------------------

    def record(self, failure: bool, window: int) -> str | None:
        """Feed one completed tick's outcome; returns the new state on a
        transition, else ``None``."""
        if self.state == "open":
            raise RuntimeError(
                "an open breaker admits no ticks; call try_half_open first"
            )
        if self.state == "half_open":
            if failure:
                self._open(window)
                return "open"
            self.probe_streak += 1
            if self.probe_streak >= PROBE_SUCCESSES:
                self._close()
                return "closed"
            return None
        self.outcomes.append(1 if failure else 0)
        del self.outcomes[:-WINDOW]
        if (
            len(self.outcomes) >= MIN_SAMPLES
            and sum(self.outcomes) / len(self.outcomes) >= FAILURE_THRESHOLD
        ):
            self._open(window)
            return "open"
        return None

    def force_open(self, window: int) -> str:
        """Bulkhead trip: the tick raised instead of completing."""
        if self.state == "open":
            return "open"
        self._open(window)
        return "open"

    def try_half_open(self, window: int) -> bool:
        """Begin a probe if the cooldown has elapsed and budget remains."""
        due = self.probe_window()
        if due is None or window < due:
            return False
        self.state = "half_open"
        self.probe_rounds += 1
        self.probe_streak = 0
        self.half_open_total += 1
        return True

    # -- introspection -----------------------------------------------------

    def probe_window(self) -> int | None:
        """First sensing window a probe may run in; ``None`` when the
        breaker is not open or its probe budget is spent."""
        if self.state != "open" or self.opened_at is None:
            return None
        if self.probe_rounds >= MAX_PROBE_ROUNDS:
            return None
        return self.opened_at + COOLDOWN_WINDOWS

    def failure_rate(self) -> float:
        """Current sliding-window failure rate (0 with no samples)."""
        if not self.outcomes:
            return 0.0
        return sum(self.outcomes) / len(self.outcomes)

    # -- transitions -------------------------------------------------------

    def _open(self, window: int) -> None:
        self.state = "open"
        self.opened_at = int(window)
        self.probe_streak = 0
        self.outcomes = []
        self.opened_total += 1

    def _close(self) -> None:
        self.state = "closed"
        self.opened_at = None
        self.probe_streak = 0
        self.probe_rounds = 0
        self.outcomes = []
        self.closed_total += 1

    # -- persistence -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe full state for the serve journal."""
        return {
            "policy": dict(POLICY),
            "state": self.state,
            "outcomes": list(self.outcomes),
            "opened_at": self.opened_at,
            "probe_streak": self.probe_streak,
            "probe_rounds": self.probe_rounds,
            "opened_total": self.opened_total,
            "half_open_total": self.half_open_total,
            "closed_total": self.closed_total,
        }

    @classmethod
    def restore(cls, state: dict) -> "CircuitBreaker":
        """Rebuild a breaker bit-for-bit from :meth:`snapshot` output.

        A snapshot journaled under other thresholds than :data:`POLICY`
        raises ``ValueError``: replaying it under these would diverge.
        """
        if state["policy"] != POLICY:
            raise ValueError(
                f"breaker policy {state['policy']!r} differs from the "
                f"built-in thresholds {POLICY!r}"
            )
        breaker = cls()
        if state["state"] not in BREAKER_STATES:
            raise ValueError(f"unknown breaker state {state['state']!r}")
        breaker.state = state["state"]
        breaker.outcomes = [int(v) for v in state["outcomes"]]
        breaker.opened_at = (
            None if state["opened_at"] is None else int(state["opened_at"])
        )
        breaker.probe_streak = int(state["probe_streak"])
        breaker.probe_rounds = int(state["probe_rounds"])
        breaker.opened_total = int(state["opened_total"])
        breaker.half_open_total = int(state["half_open_total"])
        breaker.closed_total = int(state["closed_total"])
        return breaker
