"""Resilience policies for the closed loop (graceful degradation).

CrowdLearn is pitched as a *real-time disaster response* system; production
means surviving the faults of :mod:`repro.crowd.faults` rather than crashing
or silently corrupting state.  :class:`ResiliencePolicy` configures how
:meth:`~repro.core.system.CrowdLearnSystem.run_cycle` reacts when the crowd
platform misbehaves:

- **retry with backoff** — a post that hits a platform outage is retried a
  bounded number of times at the same incentive before the image is left
  with the AI;
- **refunds** — a charged query that yields zero usable responses because
  the crowd *abandoned* it returns its incentive to the
  :class:`~repro.bandit.budget.BudgetLedger`, keeping the bandit's pacing
  signal honest.  A query whose workers answered but missed the deadline is
  *not* refunded — real platforms pay for submitted work whether or not the
  requester still wants it, which is exactly why slow crowds waste money;
- **committee fallback** — images whose query produced nothing usable keep
  the reweighted committee's label instead of poisoning CQC/MIC/IPD with
  empty response sets.

:class:`ResilienceCounters` records every such intervention so a run's
degradation is observable, not inferred (surfaced per cycle in
:class:`~repro.core.system.CycleOutcome` and aggregated in
:class:`~repro.core.system.RunOutcome`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.utils.validation import check_non_negative

__all__ = ["ResiliencePolicy", "ResilienceCounters"]


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the closed loop degrades when the crowd platform misbehaves.

    The default policy is fully resilient; on a fault-free platform none of
    its branches ever trigger, so enabling it leaves the reproduced runs
    byte-identical.  :meth:`naive` reproduces the pre-resilience behaviour
    (crash on outage, NaN-prone empty-response handling) for chaos-benchmark
    comparisons.

    Enabled, a charged query that yields zero usable responses always
    falls back to the reweighted committee's label, and is refunded when
    the crowd *abandoned* it; a query whose workers all answered late is
    never refunded (the money was spent on submitted, if useless-in-time,
    work).

    Parameters
    ----------
    enabled:
        Master switch.  Disabled, ``run_cycle`` behaves exactly as the
        original reproduction: platform faults propagate to the caller.
    max_retries:
        Bounded retries after a :class:`~repro.crowd.faults.PlatformUnavailable`
        post (0 = give up immediately).
    backoff_base_seconds:
        Simulated wait before the first retry; doubles per further retry.
        Recorded in the counters (the simulator has no wall clock to spend).
    """

    enabled: bool = True
    max_retries: int = 2
    backoff_base_seconds: float = 30.0

    def __post_init__(self) -> None:
        check_non_negative(self.max_retries, "max_retries")
        check_non_negative(self.backoff_base_seconds, "backoff_base_seconds")

    @staticmethod
    def naive() -> "ResiliencePolicy":
        """The pre-resilience behaviour: no retries, no refunds, no fallback."""
        return ResiliencePolicy(enabled=False, max_retries=0)


@dataclass
class ResilienceCounters:
    """Structured counters of every resilience intervention in a run/cycle.

    ``refunds``/``refunded_cents`` cover *abandoned* queries only (zero
    responses, zero late workers).  All-late queries are tracked separately
    under ``late_queries``/``late_spent_cents``: their incentive stays
    spent, resolving the old contradiction where ``post_query`` documented
    late incentives as sunk cost but the cycle loop refunded them anyway.
    """

    retries: int = 0
    backoff_seconds: float = 0.0
    refunds: int = 0
    refunded_cents: float = 0.0
    fallbacks: int = 0
    dropped_queries: int = 0
    outages_hit: int = 0
    late_queries: int = 0
    late_spent_cents: float = 0.0
    stragglers_harvested: int = 0

    def merge(self, other: "ResilienceCounters") -> "ResilienceCounters":
        """Accumulate ``other`` into this instance (returns self)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def any(self) -> bool:
        """Whether any intervention happened at all."""
        return any(getattr(self, f.name) for f in fields(self))

    def platform_failures(self) -> int:
        """Interventions that signal the *platform* misbehaved.

        Outages hit, queries dropped after exhausted retries, and
        all-late queries — the serving layer's circuit breaker
        (:mod:`repro.serve.breaker`) treats a cycle with any of these as
        a failure sample.  Refunds and committee fallbacks are excluded:
        they are degradation working as designed, not the dependency
        failing.
        """
        return self.outages_hit + self.dropped_queries + self.late_queries

    def as_dict(self) -> dict[str, float]:
        """JSON-safe mapping of counter name to value."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: dict) -> "ResilienceCounters":
        """Inverse of :meth:`as_dict` (ignores unknown keys)."""
        known = {f.name for f in fields(ResilienceCounters)}
        return ResilienceCounters(
            **{k: v for k, v in data.items() if k in known}
        )
