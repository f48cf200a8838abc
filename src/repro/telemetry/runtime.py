"""The telemetry facade: tracer + metrics + events behind one handle.

Instrumented code takes a :class:`Telemetry` (or resolves the process
default via :func:`get_telemetry`) and calls ``span`` / ``counter`` /
``gauge`` / ``histogram`` / ``event`` on it.  The default is
:data:`NULL_TELEMETRY`, a no-op singleton whose operations allocate nothing
and record nothing, so the uninstrumented path stays byte-identical and
essentially free; :func:`use_telemetry` swaps a live pipeline in for a
scoped block (e.g. the ``repro trace`` CLI).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import (
    Clock,
    Span,
    SpanRecord,
    Tracer,
    aggregate_spans,
)

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY",
           "get_telemetry", "set_telemetry", "use_telemetry"]

#: Histogram fed by every finished span, labelled by span name.
SPAN_SECONDS = "span_seconds"


class Telemetry:
    """One run's telemetry pipeline: spans, metrics and structured events.

    Every finished span is additionally observed into the
    ``span_seconds{stage=<name>}`` histogram so per-stage wall time is
    queryable without walking the raw trace.

    Parameters
    ----------
    clock:
        Monotonic seconds source for spans and event timestamps.
        Injectable (e.g. :class:`~repro.telemetry.tracing.ManualClock`)
        so traces are deterministic in tests.
    base_labels:
        Labels stamped on *every* instrument, span and event this handle
        records (explicit labels win on collision).  The serving layer
        uses ``{"event": <event id>}`` so N interleaved deployments stay
        distinguishable in one registry.
    """

    enabled: bool = True

    def __init__(
        self,
        clock: Clock = time.perf_counter,
        base_labels: dict[str, Any] | None = None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock, on_finish=self._on_span_finish)
        self.events: list[dict[str, Any]] = []
        self.base_labels: dict[str, Any] = dict(base_labels or {})

    def _labels(self, labels: dict[str, Any]) -> dict[str, Any]:
        base = self.base_labels
        if not base:
            return labels
        return {**base, **labels}

    def _on_span_finish(self, record: SpanRecord) -> None:
        self.registry.histogram(
            SPAN_SECONDS,
            help="wall seconds per traced stage",
            buckets=DEFAULT_TIME_BUCKETS,
            **self._labels({"stage": record.name}),
        ).observe(record.duration)

    # -- tracing ---------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        """Open a span context manager around a pipeline stage."""
        return self.tracer.span(name, **self._labels(attributes))

    # -- metrics ---------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self.registry.counter(name, help=help, **self._labels(labels))

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self.registry.gauge(name, help=help, **self._labels(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self.registry.histogram(
            name, help=help, buckets=buckets, **self._labels(labels)
        )

    # -- structured events -----------------------------------------------
    def event(self, name: str, **fields: Any) -> dict[str, Any]:
        """Append a timestamped structured record and return it."""
        entry = {
            "event": name,
            "time": self.tracer.clock(),
            **self._labels(fields),
        }
        self.events.append(entry)
        return entry

    # -- snapshots --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-safe summary: metric state + per-stage span aggregates.

        Carried inside deployment checkpoints (see
        :func:`repro.eval.persistence.save_checkpoint`) so a resumed run's
        history is inspectable without unpickling the system.
        """
        stages = {
            name: {
                "count": stats.count,
                "total_seconds": stats.total_seconds,
            }
            for name, stats in aggregate_spans(self.tracer.spans).items()
        }
        return {
            "metrics": self.registry.as_dict(),
            "stages": stages,
            "n_spans": len(self.tracer.spans),
            "n_events": len(self.events),
        }

    def merge_counters(self, counters: dict[str, float], prefix: str = "",
                       help: str = "") -> None:
        """Bulk-add a name → value mapping into prefixed counters.

        Bridges ad-hoc counter structs (e.g.
        :class:`~repro.core.resilience.ResilienceCounters`) into the
        registry; zero values still register the instrument so exports show
        the full catalog.
        """
        for name, value in counters.items():
            self.counter(f"{prefix}{name}", help=help).inc(float(value))


class _NullSpan:
    """Shared do-nothing span; supports ``with`` and ``set``."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    value = 0.0
    sum = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class NullTelemetry(Telemetry):
    """The no-op telemetry singleton (:data:`NULL_TELEMETRY`).

    Every operation returns a shared, state-free object: no spans, metric
    samples or events are ever recorded, and pickling round-trips to the
    same singleton so checkpoints of uninstrumented systems stay no-op.
    """

    enabled = False

    def span(self, name: str, **attributes: Any):  # type: ignore[override]
        return _NULL_SPAN

    def counter(self, name: str, help: str = "", **labels: Any):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", **labels: Any):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
                  **labels: Any):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def event(self, name: str, **fields: Any) -> dict[str, Any]:
        return {}

    def merge_counters(self, counters: dict[str, float], prefix: str = "",
                       help: str = "") -> None:
        return None

    def __reduce__(self):
        return (_null_telemetry, ())


def _null_telemetry() -> "NullTelemetry":
    return NULL_TELEMETRY


#: Process-wide no-op instance; identity-comparable (`tel is NULL_TELEMETRY`).
NULL_TELEMETRY = NullTelemetry()

#: Context-local default handle.  A :class:`~contextvars.ContextVar`
#: rather than a module global so concurrent deployments (asyncio tasks,
#: ``contextvars.copy_context`` runs) each see their own default instead
#: of racing on one process-wide slot.
_default: ContextVar[Telemetry] = ContextVar(
    "repro_telemetry_default", default=NULL_TELEMETRY
)


def get_telemetry() -> Telemetry:
    """The current context-default telemetry (no-op unless swapped in)."""
    return _default.get()


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` as the context default; returns the previous one.

    ``None`` restores the no-op singleton.
    """
    previous = _default.get()
    _default.set(telemetry if telemetry is not None else NULL_TELEMETRY)
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Scoped :func:`set_telemetry`: restores the previous default on exit."""
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
