"""Admission policies: how shared crowd capacity splits across events.

Every sensing window the :class:`~repro.serve.pool.SharedCrowdPool`
collects one :class:`AdmissionRequest` per active event and asks a
policy to split the window's query capacity.  Policies are pure
functions of ``(capacity, requests)`` — no RNG, no hidden state — so an
interleaved run's grant sequence is reproducible from the event set
alone.  All ties break on ``event_id`` (lexicographic), never on dict
order or arrival order.

Three policies ship:

- **fair-share** — max-min water-filling: capacity is leveled across
  events so small demands are fully served before any large demand gets
  more than its equal share.
- **priority** — capacity proportional to each event's static priority
  weight (largest-remainder rounding), demand-capped with iterative
  redistribution of the surplus.
- **deadline** — like priority, but the weight is *urgency*: demand per
  remaining sensing cycle, so events about to end drain their backlog
  first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive

__all__ = [
    "AdmissionRequest",
    "AdmissionPolicy",
    "FairSharePolicy",
    "PriorityPolicy",
    "DeadlineAwarePolicy",
    "POLICIES",
    "create_admission_policy",
]


@dataclass(frozen=True)
class AdmissionRequest:
    """One event's demand for the upcoming sensing window.

    ``demand`` already folds in any deferred backlog the event wants to
    catch up on; ``cycles_remaining`` counts sensing cycles until the
    event's stream ends (used by the deadline-aware policy).
    """

    event_id: str
    demand: int
    priority: float = 1.0
    cycles_remaining: int = 1

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError(f"demand must be >= 0, got {self.demand}")
        check_positive(self.priority, "priority")


class AdmissionPolicy:
    """Base policy: split ``capacity`` query slots across ``requests``.

    Subclasses implement :meth:`allocate`, returning a complete
    ``{event_id: quota}`` mapping with ``0 <= quota <= demand`` and
    ``sum(quotas) <= capacity``.  Requests with zero demand always get
    zero.
    """

    name = "base"

    def allocate(
        self, capacity: int, requests: list[AdmissionRequest]
    ) -> dict[str, int]:
        raise NotImplementedError

    @staticmethod
    def _validated(
        capacity: int, requests: list[AdmissionRequest]
    ) -> list[AdmissionRequest]:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        seen: set[str] = set()
        for request in requests:
            if request.event_id in seen:
                raise ValueError(f"duplicate event id {request.event_id!r}")
            seen.add(request.event_id)
        return sorted(requests, key=lambda r: r.event_id)


def _weighted_allocate(
    capacity: int, requests: list[AdmissionRequest], weights: dict[str, float]
) -> dict[str, int]:
    """Demand-capped proportional split with largest-remainder rounding.

    Iterates because capping at demand frees capacity that must be
    re-split across the still-hungry events; each pass strictly shrinks
    the hungry set or exhausts capacity, so it terminates in at most
    ``len(requests)`` passes.
    """
    quotas = {r.event_id: 0 for r in requests}
    hungry = [r for r in requests if r.demand > 0]
    remaining = capacity
    while remaining > 0 and hungry:
        total_weight = sum(weights[r.event_id] for r in hungry)
        if total_weight <= 0:
            # Degenerate weights: fall back to equal shares.
            shares = {r.event_id: 1.0 for r in hungry}
            total_weight = float(len(hungry))
        else:
            shares = {r.event_id: weights[r.event_id] for r in hungry}
        ideal = {
            r.event_id: remaining * shares[r.event_id] / total_weight
            for r in hungry
        }
        granted = 0
        # Integer floor first, then leftovers by largest fractional
        # remainder (ties on event_id for determinism).
        floors = {
            r.event_id: min(int(ideal[r.event_id]),
                            r.demand - quotas[r.event_id])
            for r in hungry
        }
        for r in hungry:
            quotas[r.event_id] += floors[r.event_id]
            granted += floors[r.event_id]
        leftovers = remaining - granted
        if leftovers > 0:
            by_remainder = sorted(
                (r for r in hungry if quotas[r.event_id] < r.demand),
                key=lambda r: (
                    -(ideal[r.event_id] - int(ideal[r.event_id])),
                    r.event_id,
                ),
            )
            for r in by_remainder:
                if leftovers == 0:
                    break
                quotas[r.event_id] += 1
                granted += 1
                leftovers -= 1
        if granted == 0:
            break  # nobody could take more (all demand-capped)
        remaining -= granted
        hungry = [r for r in hungry if quotas[r.event_id] < r.demand]
    return quotas


class FairSharePolicy(AdmissionPolicy):
    """Max-min fairness: water-fill capacity until demands level out."""

    name = "fair-share"

    def allocate(
        self, capacity: int, requests: list[AdmissionRequest]
    ) -> dict[str, int]:
        requests = self._validated(capacity, requests)
        quotas = {r.event_id: 0 for r in requests}
        hungry = [r for r in requests if r.demand > 0]
        remaining = capacity
        while remaining > 0 and hungry:
            share = remaining // len(hungry)
            if share == 0:
                # Fewer slots than events: hand out singles in id order.
                for r in hungry:
                    if remaining == 0:
                        break
                    quotas[r.event_id] += 1
                    remaining -= 1
                break
            for r in hungry:
                take = min(share, r.demand - quotas[r.event_id])
                quotas[r.event_id] += take
                remaining -= take
            hungry = [r for r in hungry if quotas[r.event_id] < r.demand]
        return quotas


class PriorityPolicy(AdmissionPolicy):
    """Capacity proportional to static event priority weights."""

    name = "priority"

    def allocate(
        self, capacity: int, requests: list[AdmissionRequest]
    ) -> dict[str, int]:
        requests = self._validated(capacity, requests)
        weights = {r.event_id: float(r.priority) for r in requests}
        return _weighted_allocate(capacity, requests, weights)


class DeadlineAwarePolicy(AdmissionPolicy):
    """Capacity proportional to urgency: demand per remaining cycle.

    An event one cycle from its stream's end with a deep backlog gets
    weight equal to its whole demand; a long-running event can afford to
    defer.  Static priority still scales the urgency, so two equally
    urgent events split by importance.
    """

    name = "deadline"

    def allocate(
        self, capacity: int, requests: list[AdmissionRequest]
    ) -> dict[str, int]:
        requests = self._validated(capacity, requests)
        weights = {
            r.event_id: (
                float(r.priority)
                * r.demand / max(r.cycles_remaining, 1)
            )
            for r in requests
        }
        return _weighted_allocate(capacity, requests, weights)


#: Name → policy class, the registry behind ``repro serve --policy``.
POLICIES: dict[str, type[AdmissionPolicy]] = {
    FairSharePolicy.name: FairSharePolicy,
    PriorityPolicy.name: PriorityPolicy,
    DeadlineAwarePolicy.name: DeadlineAwarePolicy,
}


def create_admission_policy(name: str) -> AdmissionPolicy:
    """Instantiate a policy by registry name (raises on unknown names)."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown admission policy {name!r}; "
            f"choose from {sorted(POLICIES)}"
        ) from None
