"""Counters, gauges and streaming log-bucket histograms.

The registry is the aggregation half of :mod:`repro.obs`: tracers feed one
histogram per span name, the engine folds the distance oracle's counters in
at the end of a run, and the whole registry snapshots to a flat picklable
dictionary that rides back from executor workers inside
:class:`~repro.obs.telemetry.Telemetry`.

Histograms use **fixed log-spaced buckets**: recording is O(1) with no
sample storage, so a million-window run costs the same memory as a
ten-window one, and quantiles (p50/p90/p99) are exact to within one bucket
width — buckets are a constant ratio apart, so the relative error is
bounded by the per-decade resolution (≈ 26% per bucket at the default 10
buckets/decade), which is far below the run-to-run noise of wall-clock
latencies.
"""

from __future__ import annotations

import math

#: Default histogram range: 1 µs .. 10^5 s covers every latency this code
#: base produces, from a single hub-label query to a full campaign.
_DEFAULT_LOW = 1e-6
_DEFAULT_HIGH = 1e5
_DEFAULT_BUCKETS_PER_DECADE = 10


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A named value that holds its last set sample."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming histogram over fixed log-spaced buckets.

    Values in ``[low, high)`` land in ``buckets_per_decade`` buckets per
    factor of ten; values below ``low`` or at/above ``high`` land in
    dedicated under/overflow buckets whose quantile representative is the
    observed min/max.  Only bucket *counts* are stored — memory is constant
    in the number of recorded samples.

    :meth:`quantile` follows inverted-CDF semantics (the value at rank
    ``ceil(q * count)``) at bucket resolution: the returned representative
    (the geometric bucket midpoint, clamped to the observed range) lies in
    the same bucket as that order statistic.
    """

    __slots__ = ("low", "high", "buckets_per_decade", "count", "total",
                 "min", "max", "counts", "_log_low", "_num_buckets")

    def __init__(self, low: float = _DEFAULT_LOW, high: float = _DEFAULT_HIGH,
                 buckets_per_decade: int = _DEFAULT_BUCKETS_PER_DECADE) -> None:
        if not (0.0 < low < high):
            raise ValueError("histogram range must satisfy 0 < low < high")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be at least 1")
        self.low = low
        self.high = high
        self.buckets_per_decade = buckets_per_decade
        self._log_low = math.log10(low)
        self._num_buckets = int(math.ceil(
            (math.log10(high) - self._log_low) * buckets_per_decade - 1e-9))
        # counts[0] underflow, counts[1 .. n] log buckets, counts[n+1] overflow.
        self.counts = [0] * (self._num_buckets + 2)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------ #
    def bucket_index(self, value: float) -> int:
        """The bucket a value lands in (0 = underflow, n+1 = overflow)."""
        if value < self.low:
            return 0
        if value >= self.high:
            return self._num_buckets + 1
        idx = int((math.log10(value) - self._log_low) * self.buckets_per_decade)
        # Float fuzz at bucket edges can land one outside; clamp, not crash.
        return 1 + min(max(idx, 0), self._num_buckets - 1)

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """``[low, high)`` bounds of a bucket (inf-open for under/overflow)."""
        if index <= 0:
            return (0.0, self.low)
        if index >= self._num_buckets + 1:
            return (self.high, math.inf)
        step = 1.0 / self.buckets_per_decade
        lo = 10.0 ** (self._log_low + (index - 1) * step)
        return (lo, 10.0 ** (self._log_low + index * step))

    def record(self, value: float) -> None:
        """Add one sample (non-negative; negatives clamp into underflow)."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.counts[self.bucket_index(value)] += 1

    # ------------------------------------------------------------------ #
    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1], to bucket resolution.

        Returns 0.0 for an empty histogram.  The representative of an
        interior bucket is its geometric midpoint; the under/overflow
        buckets answer with the observed min/max.  All answers are clamped
        to the observed ``[min, max]`` range.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if cumulative >= rank:
                if index == 0:
                    return self.min
                if index == self._num_buckets + 1:
                    return self.max
                lo, hi = self.bucket_bounds(index)
                return min(max(math.sqrt(lo * hi), self.min), self.max)
        return self.max  # pragma: no cover - cumulative always reaches count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """Flat picklable digest: count/sum/min/max plus p50/p90/p99."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "mean": self.mean,
                "p50": self.quantile(0.50), "p90": self.quantile(0.90),
                "p99": self.quantile(0.99)}


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
def _render_key(name: str, labels: tuple[tuple[str, object], ...]) -> str:
    """Dotted name plus sorted ``{k=v,...}`` label suffix (Prometheus-ish)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named counters, gauges and histograms with optional labels.

    Instruments are addressed by dotted name plus keyword labels
    (``registry.counter("oracle.cache.hits", cache="point")``); repeated
    lookups return the same instrument.  :meth:`snapshot` flattens the
    whole registry into plain dictionaries for pickling and reporting.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, tuple(sorted(labels.items())))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(_render_key(*key))
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, tuple(sorted(labels.items())))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(_render_key(*key))
        return gauge

    def histogram(self, name: str, low: float = _DEFAULT_LOW,
                  high: float = _DEFAULT_HIGH,
                  buckets_per_decade: int = _DEFAULT_BUCKETS_PER_DECADE,
                  **labels: object) -> Histogram:
        key = (name, tuple(sorted(labels.items())))
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram(low, high, buckets_per_decade)
        return hist

    def snapshot(self) -> dict[str, dict]:
        """Flat picklable view: rendered name -> value / histogram digest."""
        return {
            "counters": {c.name: c.value for c in self._counters.values()},
            "gauges": {g.name: g.value for g in self._gauges.values()},
            "histograms": {_render_key(*key): hist.summary()
                           for key, hist in self._histograms.items()},
        }


# --------------------------------------------------------------------------- #
# the null registry (disabled path)
# --------------------------------------------------------------------------- #
class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled path."""

    __slots__ = ()
    name = ""
    value = 0.0
    count = 0
    total = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def record(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Registry that accepts every call and stores nothing (singleton)."""

    enabled = False

    def counter(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **kwargs: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict[str, dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Process-wide no-op registry (the disabled default).
NULL_REGISTRY = NullRegistry()


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullRegistry", "NULL_REGISTRY"]
