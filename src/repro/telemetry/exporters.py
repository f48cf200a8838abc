"""Exporters: JSONL event log, Prometheus text format, summary tables.

Three consumers, three formats:

- :func:`export_jsonl` — an append-friendly archival log (one JSON object
  per line: spans, events, metric samples);
- :func:`to_prometheus` — the Prometheus text exposition format, so a
  deployment can be scraped (or diffed) with standard tooling;
- :func:`summary_report` — the human-readable per-run breakdown the
  ``repro trace`` CLI prints: per-stage wall time and the cost/volume
  counters.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.tracing import aggregate_spans

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.runtime import Telemetry

__all__ = ["export_jsonl", "to_prometheus", "summary_report"]

#: Counters rendered in the cost section of the summary, in order.
_COST_COUNTERS = (
    ("cost_cents_total", "crowd spend (cents)"),
    ("resilience_refunded_cents_total", "refunded (cents)"),
    ("queries_posted_total", "queries posted"),
    ("responses_total", "worker responses"),
)


def export_jsonl(telemetry: "Telemetry", path: str | Path) -> Path:
    """Write every span, event and metric sample as one JSON line each.

    The first line is a header record carrying counts, so a truncated file
    is detectable on read-back.
    """
    path = Path(path)
    registry_state = telemetry.registry.as_dict()["instruments"]
    lines = [json.dumps({
        "type": "header",
        "n_spans": len(telemetry.tracer.spans),
        "n_events": len(telemetry.events),
        "n_metrics": len(registry_state),
    })]
    for span in telemetry.tracer.spans:
        lines.append(json.dumps({"type": "span", **span.as_dict()}))
    for event in telemetry.events:
        lines.append(json.dumps({"type": "event", **event}))
    for entry in registry_state:
        lines.append(json.dumps({"type": "metric", **entry}))
    path.write_text("\n".join(lines) + "\n")
    return path


def _format_value(value: float) -> str:
    """A Prometheus-grammar value token."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    by_name: dict[str, list] = {}
    for instrument in registry:
        by_name.setdefault(instrument.name, []).append(instrument)
    lines: list[str] = []
    for name, instruments in by_name.items():
        first = instruments[0]
        if first.help:
            lines.append(f"# HELP {name} {_escape_help(first.help)}")
        lines.append(f"# TYPE {name} {first.kind}")
        for instrument in instruments:
            if isinstance(instrument, Histogram):
                cumulative = instrument.cumulative_counts()
                bounds = [*instrument.buckets, math.inf]
                for bound, count in zip(bounds, cumulative):
                    le = "+Inf" if math.isinf(bound) else _format_value(bound)
                    labels = dict(instrument.labels)
                    labels["le"] = le
                    inner = ",".join(
                        f'{k}="{v}"' for k, v in sorted(labels.items())
                    )
                    lines.append(f"{name}_bucket{{{inner}}} {count}")
                suffix = instrument.label_suffix()
                lines.append(
                    f"{name}_sum{suffix} {_format_value(instrument.sum)}"
                )
                lines.append(f"{name}_count{suffix} {instrument.count}")
            else:
                lines.append(
                    f"{name}{instrument.label_suffix()} "
                    f"{_format_value(instrument.value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def summary_report(telemetry: "Telemetry", title: str = "Telemetry") -> str:
    """Human-readable per-run breakdown: stage wall time, then costs.

    Stage share is relative to the total time of root spans (spans with no
    parent), so nested stages show how a cycle's budget of wall time is
    spent without double counting the parent.
    """
    from repro.eval.reporting import format_table

    spans = telemetry.tracer.spans
    root_total = sum(s.duration for s in telemetry.tracer.roots())
    stats = aggregate_spans(spans)
    rows = [
        [
            name,
            s.count,
            float(s.total_seconds),
            float(s.mean_seconds * 1e3),
            float(100.0 * s.total_seconds / root_total) if root_total else 0.0,
        ]
        for name, s in sorted(
            stats.items(), key=lambda kv: -kv[1].total_seconds
        )
    ]
    parts = [
        format_table(
            ["stage", "count", "total_s", "mean_ms", "share_%"],
            rows,
            title=f"{title}: per-stage wall time "
                  f"({len(spans)} spans, {root_total:.3f}s traced)",
        )
    ]
    cost_rows = []
    for name, label in _COST_COUNTERS:
        instrument = telemetry.registry.get(name)
        if instrument is not None:
            cost_rows.append([label, float(instrument.value)])
    if cost_rows:
        parts.append(
            format_table(
                ["counter", "value"],
                cost_rows,
                title=f"{title}: cost and volume",
            )
        )
    resilience_rows = [
        [instrument.name, float(instrument.value)]
        for instrument in telemetry.registry
        if instrument.name.startswith("resilience_")
        and instrument.name not in dict(_COST_COUNTERS)
    ]
    if any(value for _, value in resilience_rows):
        parts.append(
            format_table(
                ["counter", "value"],
                resilience_rows,
                title=f"{title}: resilience interventions",
            )
        )
    guard_rows = [
        [instrument.name, float(instrument.value)]
        for instrument in telemetry.registry
        if instrument.name.startswith(("guard_", "trainer_sentinel_"))
        and instrument.name not in dict(_COST_COUNTERS)
    ]
    if any(value for _, value in guard_rows):
        parts.append(
            format_table(
                ["counter", "value"],
                guard_rows,
                title=f"{title}: guard interventions",
            )
        )
    recovery_rows = [
        [instrument.name, float(instrument.value)]
        for instrument in telemetry.registry
        if instrument.name.startswith("recovery_")
        and instrument.name not in dict(_COST_COUNTERS)
    ]
    if any(value for _, value in recovery_rows):
        parts.append(
            format_table(
                ["counter", "value"],
                recovery_rows,
                title=f"{title}: Recovery",
            )
        )
    health_rows = [
        [instrument.name, float(instrument.value)]
        for instrument in telemetry.registry
        if instrument.name.startswith(("breaker_", "health_"))
        and instrument.name not in dict(_COST_COUNTERS)
    ]
    if any(value for _, value in health_rows):
        parts.append(
            format_table(
                ["counter", "value"],
                health_rows,
                title=f"{title}: Health",
            )
        )
    return "\n\n".join(parts)
