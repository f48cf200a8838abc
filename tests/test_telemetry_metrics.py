"""Tests for repro.telemetry.metrics (instruments and registry)."""

import math

import pytest

from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)


class TestLogBuckets:
    def test_default_decades(self):
        buckets = log_buckets(1e-4, 1e3, per_decade=1)
        assert buckets[0] == pytest.approx(1e-4)
        assert buckets[-1] == pytest.approx(1e3)
        assert len(buckets) == 8
        ratios = [b / a for a, b in zip(buckets, buckets[1:])]
        assert all(r == pytest.approx(10.0) for r in ratios)

    def test_per_decade_subdivision(self):
        buckets = log_buckets(1.0, 100.0, per_decade=2)
        assert len(buckets) == 5
        assert buckets[1] == pytest.approx(math.sqrt(10))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 10.0, per_decade=0)

    def test_default_time_buckets_ascending(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)


class TestCounter:
    def test_accumulates(self):
        c = Counter("x_total")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_rejects_negative_and_nonfinite(self):
        c = Counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)
        with pytest.raises(ValueError):
            c.inc(float("nan"))
        with pytest.raises(ValueError):
            c.inc(float("inf"))

    def test_zero_increment_allowed(self):
        c = Counter("x_total")
        c.inc(0.0)
        assert c.value == 0.0

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name!")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert g.value == pytest.approx(4.0)

    def test_negative_allowed_nan_rejected(self):
        g = Gauge("depth")
        g.set(-10.0)
        assert g.value == -10.0
        with pytest.raises(ValueError):
            g.set(float("nan"))


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1, 1]
        assert h.cumulative_counts() == [1, 2, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)

    def test_zero_lands_in_first_bucket(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        h.observe(0.0)
        assert h.bucket_counts == [1, 0, 0]
        assert h.sum == 0.0

    def test_exact_bound_is_le(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        h.observe(1.0)  # le="1" bucket includes 1.0
        assert h.bucket_counts == [1, 0, 0]

    def test_inf_goes_to_overflow(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(float("inf"))
        assert h.bucket_counts == [0, 1]
        assert math.isinf(h.sum)

    def test_negative_and_nan_rejected(self):
        h = Histogram("lat", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.observe(-0.001)
        with pytest.raises(ValueError):
            h.observe(float("nan"))
        assert h.count == 0

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(10.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(-1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(1.0, float("inf")))

    def test_mean(self):
        h = Histogram("lat", buckets=(10.0,))
        assert h.mean() == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean() == pytest.approx(3.0)


class TestMetricsRegistry:
    def test_same_identity_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert reg.counter("a_total", stage="x") is not reg.counter("a_total")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a", stage="x")  # same name, different labels

    def test_bucket_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="buckets"):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_value_lookup(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(7)
        assert reg.value("a") == 7.0
        assert reg.value("missing", default=-1.0) == -1.0
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        assert reg.value("h") == pytest.approx(0.5)  # histogram sum

    def test_as_dict_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c_total", help="a counter", stage="x").inc(3)
        reg.gauge("g").set(-2.5)
        h = reg.histogram("h_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        entries = {e["name"]: e for e in reg.as_dict()["instruments"]}
        assert entries["c_total"] == {
            "kind": "counter", "name": "c_total", "help": "a counter",
            "labels": {"stage": "x"}, "value": 3.0,
        }
        assert entries["g"]["value"] == -2.5
        rh = entries["h_seconds"]
        assert rh["bucket_counts"] == h.bucket_counts
        assert rh["sum"] == h.sum
        assert rh["count"] == h.count
        assert rh["buckets"] == list(h.buckets)

    def test_iteration_and_len(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.gauge("b")
        assert len(reg) == 2
        assert {i.name for i in reg} == {"a", "b"}
