"""Tracing, metrics and profiling for the crowd–AI closed loop.

The measurement substrate every perf/scaling change reports against:

- :mod:`repro.telemetry.tracing` — :class:`Span` tracer with an injectable
  monotonic clock (deterministic traces under the seeded simulation);
- :mod:`repro.telemetry.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments (fixed log-scale buckets) behind a
  deduplicating :class:`MetricsRegistry`;
- :mod:`repro.telemetry.exporters` — JSONL event log, Prometheus text
  format, and the human-readable summary ``repro trace`` prints;
- :mod:`repro.telemetry.runtime` — the :class:`Telemetry` facade and the
  no-op :data:`NULL_TELEMETRY` default that keeps the uninstrumented path
  byte-identical.

See ``docs/OBSERVABILITY.md`` for the instrument catalog and span naming
convention.
"""

from repro.telemetry.exporters import (
    export_jsonl,
    summary_report,
    to_prometheus,
)
from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.telemetry.runtime import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.telemetry.tracing import (
    ManualClock,
    Span,
    SpanRecord,
    SpanStats,
    Tracer,
    aggregate_spans,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "Tracer",
    "Span",
    "SpanRecord",
    "SpanStats",
    "ManualClock",
    "aggregate_spans",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "log_buckets",
    "DEFAULT_TIME_BUCKETS",
    "export_jsonl",
    "to_prometheus",
    "summary_report",
]
