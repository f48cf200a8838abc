"""Tests for repro.telemetry.exporters (JSONL, Prometheus, summary)."""

import json
import re

import pytest

from repro.telemetry import (
    ManualClock,
    MetricsRegistry,
    Telemetry,
    export_jsonl,
    summary_report,
    to_prometheus,
)


@pytest.fixture
def telemetry() -> Telemetry:
    tel = Telemetry(clock=ManualClock(tick_seconds=0.5))
    with tel.span("cycle", index=0, context="morning"):
        with tel.span("cycle.qss"):
            pass
        with tel.span("cycle.crowd", queries=2):
            pass
    tel.counter("queries_posted_total", help="queries").inc(2)
    tel.counter("cost_cents_total", help="spend").inc(12.5)
    tel.gauge("budget_remaining_cents").set(387.5)
    tel.event("cycle_done", index=0, accuracy=0.9)
    return tel


def _records(path) -> dict[str, list[dict]]:
    """An exported JSONL file's records, grouped by their ``type``."""
    grouped: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        grouped.setdefault(record.pop("type"), []).append(record)
    return grouped


class TestJsonlRoundtrip:
    def test_roundtrip(self, telemetry, tmp_path):
        path = export_jsonl(telemetry, tmp_path / "run.jsonl")
        parsed = _records(path)
        assert [s["name"] for s in parsed["span"]] == [
            s.name for s in telemetry.tracer.spans
        ]
        assert parsed["span"][0]["attributes"] == {}
        assert parsed["span"][-1]["attributes"]["context"] == "morning"
        assert parsed["event"][0]["event"] == "cycle_done"
        assert parsed["event"][0]["accuracy"] == 0.9
        values = {m["name"]: m.get("value") for m in parsed["metric"]}
        assert values["queries_posted_total"] == 2.0
        assert values["cost_cents_total"] == 12.5
        assert values["budget_remaining_cents"] == 387.5
        (header,) = parsed["header"]
        assert (header["n_spans"], header["n_events"], header["n_metrics"]) == (
            len(parsed["span"]), len(parsed["event"]), len(parsed["metric"])
        )

    def test_every_line_is_json(self, telemetry, tmp_path):
        path = export_jsonl(telemetry, tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        assert all(isinstance(json.loads(line), dict) for line in lines)
        assert json.loads(lines[0])["type"] == "header"


# The Prometheus text grammar, line by line: comments, then
# ``name{labels} value`` samples.
_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_TYPE_RE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$"
)
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"                        # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""             # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"        # more labels
    r" (NaN|[+-]Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$"  # value
)


class TestPrometheus:
    def test_grammar(self, telemetry):
        text = to_prometheus(telemetry.registry)
        assert text.endswith("\n")
        for line in text.rstrip("\n").splitlines():
            assert (
                _HELP_RE.match(line)
                or _TYPE_RE.match(line)
                or _SAMPLE_RE.match(line)
            ), f"line violates exposition grammar: {line!r}"

    def test_histogram_series(self, telemetry):
        text = to_prometheus(telemetry.registry)
        assert re.search(r'span_seconds_bucket\{le="\+Inf",stage="cycle"\} 1',
                         text)
        assert "span_seconds_sum" in text
        assert "span_seconds_count" in text

    def test_cumulative_le_counts_nondecreasing(self, telemetry):
        text = to_prometheus(telemetry.registry)
        counts = [
            int(m.group(1))
            for m in re.finditer(
                r'span_seconds_bucket\{[^}]*stage="cycle"[^}]*\} (\d+)', text
            )
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 1

    def test_counter_and_gauge_samples(self, telemetry):
        text = to_prometheus(telemetry.registry)
        assert "# TYPE queries_posted_total counter" in text
        assert "queries_posted_total 2" in text
        assert "# TYPE budget_remaining_cents gauge" in text
        assert "budget_remaining_cents 387.5" in text

    def test_empty_registry(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestSummaryReport:
    def test_contains_stages_and_costs(self, telemetry):
        report = summary_report(telemetry)
        assert "per-stage wall time" in report
        assert "cycle.qss" in report
        assert "crowd spend (cents)" in report
        assert "queries posted" in report

    def test_share_relative_to_roots(self, telemetry):
        report = summary_report(telemetry)
        # the root "cycle" span accounts for 100% of traced time
        root_line = next(
            line for line in report.splitlines()
            if line.startswith("cycle ")
        )
        assert "100.000" in root_line

    def test_empty_telemetry(self):
        report = summary_report(Telemetry(clock=ManualClock()))
        assert "0 spans" in report

    def test_guard_section_appears_when_guards_intervene(self, telemetry):
        assert "guard interventions" not in summary_report(telemetry)
        telemetry.counter(
            "guard_rollbacks_total", help="experts rolled back"
        ).inc(2)
        telemetry.counter(
            "trainer_sentinel_aborts_total", help="epochs aborted"
        ).inc()
        report = summary_report(telemetry)
        assert "guard interventions" in report
        assert "guard_rollbacks_total" in report
        assert "trainer_sentinel_aborts_total" in report

    def test_guard_section_hidden_when_all_zero(self, telemetry):
        telemetry.counter("guard_rollbacks_total", help="rollbacks").inc(0)
        assert "guard interventions" not in summary_report(telemetry)

    def test_recovery_section_appears_after_a_resume(self, telemetry):
        assert "Recovery" not in summary_report(telemetry)
        telemetry.counter(
            "recovery_restarts", help="times a run resumed after a crash"
        ).inc()
        telemetry.counter(
            "recovery_replayed_records", help="records replayed"
        ).inc(7)
        telemetry.counter(
            "recovery_requeries_avoided_cents", help="spend served from log"
        ).inc(40.0)
        report = summary_report(telemetry)
        assert "Recovery" in report
        assert "recovery_restarts" in report
        assert "recovery_requeries_avoided_cents" in report

    def test_recovery_section_hidden_when_all_zero(self, telemetry):
        telemetry.counter("recovery_restarts", help="restarts").inc(0)
        assert "Recovery" not in summary_report(telemetry)
