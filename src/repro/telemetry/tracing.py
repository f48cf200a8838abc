"""Span tracing for the closed loop, with an injectable monotonic clock.

A :class:`Tracer` produces :class:`Span` context managers; finished spans
become immutable :class:`SpanRecord` entries (name, start/end, parent,
attributes).  The clock is any zero-argument callable returning seconds —
:func:`time.perf_counter` by default, or a :class:`ManualClock` in tests so
trace timings are exactly reproducible alongside the seeded
:class:`~repro.utils.clock.TemporalContext` simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = ["Clock", "ManualClock", "SpanRecord", "Span", "Tracer",
           "aggregate_spans", "SpanStats"]

#: A monotonic clock: () -> seconds.
Clock = Callable[[], float]


@dataclass
class ManualClock:
    """A deterministic clock for tests: each reading advances a fixed tick.

    Readings return 0, ``tick_seconds``, ``2 * tick_seconds``, ... so span
    durations depend only on how many readings happen between enter and
    exit — never on the machine running the test.
    """

    tick_seconds: float = 1.0
    now: float = field(default=0.0)

    def __call__(self) -> float:
        reading = self.now
        self.now += self.tick_seconds
        return reading

    def advance(self, seconds: float) -> None:
        """Jump forward without producing a reading."""
        if seconds < 0:
            raise ValueError(f"cannot rewind a monotonic clock: {seconds}")
        self.now += seconds


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds between enter and exit."""
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe mapping (attributes stored verbatim)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attributes": dict(self.attributes),
        }


class Span:
    """A live span; use as a context manager around the timed region."""

    __slots__ = ("_tracer", "name", "attributes", "_start", "_span_id",
                 "_parent_id")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self._start = 0.0
        self._span_id = -1
        self._parent_id: int | None = None

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self._span_id = tracer._next_id
        tracer._next_id += 1
        self._parent_id = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self._span_id)
        self._start = tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        end = tracer.clock()
        if tracer._stack and tracer._stack[-1] == self._span_id:
            tracer._stack.pop()
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        record = SpanRecord(
            name=self.name,
            start=self._start,
            end=end,
            span_id=self._span_id,
            parent_id=self._parent_id,
            attributes=self.attributes,
        )
        tracer.spans.append(record)
        if tracer.on_finish is not None:
            tracer.on_finish(record)


class Tracer:
    """Collects finished spans in end order.

    Parameters
    ----------
    clock:
        Monotonic seconds source (injectable for determinism).
    on_finish:
        Optional callback invoked with every finished :class:`SpanRecord`
        (the telemetry facade uses it to feed the span-duration histogram).
    """

    def __init__(self, clock: Clock = time.perf_counter,
                 on_finish: Callable[[SpanRecord], None] | None = None) -> None:
        self.clock = clock
        self.on_finish = on_finish
        self.spans: list[SpanRecord] = []
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, **attributes: Any) -> Span:
        """Open a span; nesting follows ``with`` nesting."""
        if not name:
            raise ValueError("span name must be non-empty")
        return Span(self, name, attributes)

    def roots(self) -> list[SpanRecord]:
        """Finished spans with no parent (top-level stages)."""
        return [s for s in self.spans if s.parent_id is None]

    def by_name(self, name: str) -> list[SpanRecord]:
        """Finished spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        """Drop all finished spans (active spans are unaffected)."""
        self.spans.clear()


@dataclass
class SpanStats:
    """Aggregate statistics of all spans sharing one name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = float("inf")
    max_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


def aggregate_spans(spans: Iterable[SpanRecord]) -> dict[str, SpanStats]:
    """Group spans by name into :class:`SpanStats`, insertion-ordered."""
    stats: dict[str, SpanStats] = {}
    for span in spans:
        entry = stats.setdefault(span.name, SpanStats(span.name))
        entry.count += 1
        entry.total_seconds += span.duration
        entry.min_seconds = min(entry.min_seconds, span.duration)
        entry.max_seconds = max(entry.max_seconds, span.duration)
    return stats
