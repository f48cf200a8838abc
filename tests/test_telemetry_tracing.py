"""Tests for repro.telemetry.tracing (spans, nesting, manual clock)."""

import pytest

from repro.telemetry.tracing import (
    ManualClock,
    SpanRecord,
    Tracer,
    aggregate_spans,
)


class TestManualClock:
    def test_ticks_per_reading(self):
        clock = ManualClock(tick_seconds=2.0)
        assert clock() == 0.0
        assert clock() == 2.0
        assert clock() == 4.0

    def test_advance(self):
        clock = ManualClock(tick_seconds=1.0)
        clock.advance(10.0)
        assert clock() == 10.0
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestTracer:
    def test_deterministic_durations(self):
        tracer = Tracer(clock=ManualClock(tick_seconds=1.0))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        # readings: outer.start=0, inner.start=1, inner.end=2, outer.end=3
        inner, outer = tracer.spans
        assert inner.name == "inner" and inner.duration == 1.0
        assert outer.name == "outer" and outer.duration == 3.0

    def test_parent_links(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["a"].parent_id is None
        assert by_name["b"].parent_id == by_name["a"].span_id
        assert by_name["c"].parent_id == by_name["a"].span_id
        assert tracer.roots() == [by_name["a"]]

    def test_siblings_after_nesting(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert all(s.parent_id is None for s in tracer.spans)

    def test_attributes_and_set(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("s", cycle=3) as span:
            span.set(queries=5)
        record = tracer.spans[0]
        assert record.attributes == {"cycle": 3, "queries": 5}

    def test_exception_tags_error_and_propagates(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        record = tracer.spans[0]
        assert record.attributes["error"] == "RuntimeError"
        # the stack unwound: a new span is a root again
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].parent_id is None

    def test_on_finish_callback(self):
        seen = []
        tracer = Tracer(clock=ManualClock(), on_finish=seen.append)
        with tracer.span("x"):
            pass
        assert [r.name for r in seen] == ["x"]

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Tracer(clock=ManualClock()).span("")

    def test_by_name_and_clear(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("x"):
            pass
        with tracer.span("y"):
            pass
        assert len(tracer.by_name("x")) == 1
        tracer.clear()
        assert tracer.spans == []


class TestSpanRecord:
    def test_as_dict(self):
        record = SpanRecord(
            name="s", start=1.0, end=3.5, span_id=4, parent_id=2,
            attributes={"k": "v"},
        )
        assert record.as_dict() == {
            "name": "s", "start": 1.0, "end": 3.5, "span_id": 4,
            "parent_id": 2, "attributes": {"k": "v"},
        }
        assert record.duration == 2.5


class TestAggregateSpans:
    def test_stats(self):
        tracer = Tracer(clock=ManualClock(tick_seconds=1.0))
        for _ in range(2):
            with tracer.span("stage"):
                pass
        stats = aggregate_spans(tracer.spans)["stage"]
        assert stats.count == 2
        assert stats.total_seconds == 2.0
        assert stats.mean_seconds == 1.0
        assert stats.min_seconds == 1.0
        assert stats.max_seconds == 1.0

    def test_empty(self):
        assert aggregate_spans([]) == {}
