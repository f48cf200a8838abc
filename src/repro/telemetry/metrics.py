"""Counter / Gauge / Histogram instruments and their registry.

The instrument model follows Prometheus semantics: counters only go up,
gauges go anywhere finite, histograms bucket observations under fixed
log-scale upper bounds (plus an implicit ``+Inf`` bucket) and track the
running sum and count.  Instruments are identified by a metric name plus an
optional frozen label set; :class:`MetricsRegistry` deduplicates them so the
same call site can fetch-and-update without bookkeeping.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Any, Iterator

__all__ = ["log_buckets", "DEFAULT_TIME_BUCKETS", "Counter", "Gauge",
           "Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_buckets(
    lo: float = 1e-4, hi: float = 1e3, per_decade: int = 1
) -> tuple[float, ...]:
    """Fixed log-scale histogram bucket bounds from ``lo`` to ``hi``.

    Returns ``per_decade`` geometrically spaced bounds per factor of ten,
    inclusive of both endpoints (up to float rounding).  The implicit
    ``+Inf`` bucket is added by :class:`Histogram` itself.
    """
    if lo <= 0 or not math.isfinite(lo):
        raise ValueError(f"lo must be positive and finite, got {lo}")
    if hi <= lo or not math.isfinite(hi):
        raise ValueError(f"hi must be finite and > lo, got {hi}")
    if per_decade <= 0:
        raise ValueError(f"per_decade must be positive, got {per_decade}")
    n_steps = round(math.log10(hi / lo) * per_decade)
    bounds = [lo * 10 ** (k / per_decade) for k in range(n_steps + 1)]
    if bounds[-1] < hi:
        bounds.append(hi)
    return tuple(float(b) for b in bounds)


#: Default buckets for wall-time observations: 0.1 ms .. 1000 s, log-spaced.
DEFAULT_TIME_BUCKETS = log_buckets(1e-4, 1e3, per_decade=1)

#: Instrument labels are stored canonically as a sorted (key, value) tuple.
LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict[str, Any]) -> LabelSet:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Common identity for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: LabelSet) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labels = labels

    def label_suffix(self) -> str:
        """The ``{k="v",...}`` exposition suffix (empty when unlabelled)."""
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return "{" + inner + "}"


class Counter(_Instrument):
    """A monotonically non-decreasing accumulator."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: LabelSet = ()) -> None:
        super().__init__(name, help, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be finite and >= 0)."""
        amount = float(amount)
        if not math.isfinite(amount) or amount < 0:
            raise ValueError(
                f"counter increments must be finite and >= 0, got {amount}"
            )
        self.value += amount


class Gauge(_Instrument):
    """A value that can go up and down (budgets, weights, queue depths)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: LabelSet = ()) -> None:
        super().__init__(name, help, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("gauge value must not be NaN")
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + float(amount))

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - float(amount))


class Histogram(_Instrument):
    """Observations bucketed under fixed ascending upper bounds.

    ``buckets`` are finite, strictly ascending, non-negative upper bounds;
    an implicit ``+Inf`` bucket catches everything above the last bound
    (including ``inf`` observations).  Zero is a valid observation;
    negative and NaN observations are rejected — durations, cents and
    counts are all non-negative by construction, so a negative value is a
    caller bug worth surfacing.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
                 labels: LabelSet = ()) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        for bound in bounds:
            if not math.isfinite(bound) or bound < 0:
                raise ValueError(
                    f"bucket bounds must be finite and >= 0, got {bound}"
                )
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly ascending: {bounds}")
        self.buckets = bounds
        #: per-bucket (non-cumulative) counts; [-1] is the +Inf bucket.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value) or value < 0:
            raise ValueError(
                f"histogram observations must be >= 0 and not NaN, got {value}"
            )
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> list[int]:
        """Cumulative counts per bound (Prometheus ``le`` semantics), +Inf last."""
        total = 0
        out = []
        for count in self.bucket_counts:
            total += count
            out.append(total)
        return out

    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self.sum / self.count if self.count else 0.0


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Deduplicating factory and container for instruments.

    The same ``(name, labels)`` pair always returns the same instrument;
    requesting it as a different kind (or a histogram with different
    buckets) is a programming error and raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelSet], Instrument] = {}

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get(Counter, name, help, _labelset(labels))

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get(Gauge, name, help, _labelset(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        instrument = self._get(
            Histogram, name, help, _labelset(labels), buckets=buckets
        )
        if instrument.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{instrument.buckets}"
            )
        return instrument

    def _get(self, cls, name, help, labels, **kwargs):
        key = (name, labels)
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as a "
                    f"{existing.kind}, not a {cls.kind}"
                )
            return existing
        for (other_name, _), other in self._instruments.items():
            if other_name == name and not isinstance(other, cls):
                raise ValueError(
                    f"metric {name!r} already registered as a "
                    f"{other.kind}, not a {cls.kind}"
                )
        instrument = cls(name, help=help, labels=labels, **kwargs)
        self._instruments[key] = instrument
        return instrument

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str, **labels: Any) -> Instrument | None:
        """The instrument for ``(name, labels)``, or None if never created."""
        return self._instruments.get((name, _labelset(labels)))

    def value(self, name: str, default: float = 0.0, **labels: Any) -> float:
        """Counter/gauge value (or histogram sum) for a metric, with default."""
        instrument = self.get(name, **labels)
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            return instrument.sum
        return instrument.value

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of every instrument's state."""
        samples = []
        for instrument in self:
            entry: dict[str, Any] = {
                "kind": instrument.kind,
                "name": instrument.name,
                "help": instrument.help,
                "labels": {k: v for k, v in instrument.labels},
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = list(instrument.buckets)
                entry["bucket_counts"] = list(instrument.bucket_counts)
                entry["sum"] = instrument.sum
                entry["count"] = instrument.count
            else:
                entry["value"] = instrument.value
            samples.append(entry)
        return {"instruments": samples}
