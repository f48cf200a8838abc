"""The event registry: every deployment the service knows about.

An ordered, id-keyed collection of :class:`~repro.serve.deployment.Deployment`
objects.  Iteration order is insertion order; all cross-event fan-outs in
the service sort by ``event_id`` instead, so registry order never leaks
into scheduling decisions.
"""

from __future__ import annotations

from typing import Iterator

from repro.serve.deployment import Deployment

__all__ = ["EventRegistry"]


class EventRegistry:
    """Deployments by event id, with duplicate-id rejection."""

    def __init__(self) -> None:
        self._events: dict[str, Deployment] = {}

    def add(self, deployment: Deployment) -> Deployment:
        """Register a deployment; raises on a duplicate event id."""
        event_id = deployment.event_id
        if event_id in self._events:
            raise ValueError(f"event {event_id!r} is already registered")
        self._events[event_id] = deployment
        return deployment

    def get(self, event_id: str) -> Deployment:
        """The deployment for ``event_id`` (KeyError with a clear message)."""
        try:
            return self._events[event_id]
        except KeyError:
            raise KeyError(
                f"unknown event {event_id!r}; registered: "
                f"{sorted(self._events)}"
            ) from None

    def active(self) -> list[Deployment]:
        """Unfinished deployments, sorted by event id (deterministic)."""
        return sorted(
            (d for d in self._events.values() if not d.done),
            key=lambda d: d.event_id,
        )

    def all(self) -> list[Deployment]:
        """Every deployment, sorted by event id."""
        return sorted(self._events.values(), key=lambda d: d.event_id)

    def __contains__(self, event_id: str) -> bool:
        return event_id in self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Deployment]:
        return iter(self._events.values())
