"""Deterministic metrics registry: Counter / Gauge / Histogram.

The registry is the numeric side of the observability spine: it
subscribes to a system's :class:`~repro.obs.probe.Probe`
(``system.set_metrics``) beside a
:class:`~repro.runtime.trace.TraceRecorder`, and components record
*model-time* durations and counts into it through the probe; with
nothing subscribed every timed path is bit-identical. Nothing in this
module reads a wall clock; two identical runs produce byte-identical
snapshots.

Histograms use fixed log-spaced bucket boundaries (quarter-decade steps
from 100 ns to 10 s by default) so latency distributions from different
runs and systems are directly comparable.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_LATENCY_BUCKETS"]

#: quarter-decade log-spaced upper bounds, 1e-7 s .. 10 s (an implicit
#: +Inf bucket catches anything slower)
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** (exponent / 4.0) for exponent in range(-28, 5))


def _bound_label(bound: float) -> str:
    """Stable short label for a bucket upper bound."""
    return f"{bound:.4g}"


class Counter:
    """A monotonically increasing count (ints or model-time seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram over non-negative samples.

    ``bounds`` are inclusive upper edges; samples above the last bound
    land in the implicit +Inf bucket. Bucket counts are stored
    per-bucket (not cumulative); :meth:`cumulative` derives the
    Prometheus-style running totals.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "total", "count")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be sorted ascending")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        if index >= len(self.bounds):
            self.overflow += 1
        else:
            self.counts[index] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate.

        Walks the cumulative counts to the bucket holding the ``q``-th
        sample and interpolates the sample's position inside it —
        geometrically for log-spaced buckets (both edges positive),
        linearly when the bucket touches zero. The estimate is within
        one bucket width of the exact sample quantile by construction;
        samples in the +Inf overflow bucket are reported at the last
        finite bound (the histogram cannot know more).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile fraction must be in [0, 1]")
        if self.count == 0:
            return 0.0
        # nearest-rank target (1-based), matching the deterministic
        # percentile() used on raw sample lists
        rank = max(1, min(self.count, round(q * self.count)))
        running = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if running + count >= rank:
                hi = self.bounds[index]
                lo = self.bounds[index - 1] if index > 0 else 0.0
                position = (rank - running) / count
                if lo > 0.0:
                    return lo * (hi / lo) ** position
                return lo + (hi - lo) * position
            running += count
        return self.bounds[-1]

    def cumulative(self) -> List[Tuple[str, int]]:
        """(le-label, running count) pairs, ending with ``+Inf``."""
        running = 0
        out: List[Tuple[str, int]] = []
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((_bound_label(bound), running))
        out.append(("+Inf", running + self.overflow))
        return out

    def nonzero_buckets(self) -> Dict[str, int]:
        """Per-bucket counts, zero buckets omitted (compact snapshots)."""
        out = {_bound_label(b): c
               for b, c in zip(self.bounds, self.counts) if c}
        if self.overflow:
            out["+Inf"] = self.overflow
        return out


class MetricsRegistry:
    """Named metric store with get-or-create accessors.

    Components call the :meth:`count`/:meth:`observe` conveniences at
    each instrumentation point; names follow a ``layer.event`` scheme
    (``host.copy``, ``link.transfer``, ``flash.nand_read``,
    ``sched.queue_wait`` ...). Histograms record model-time seconds.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, self._histograms)
            metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    def _check_free(self, name: str, own: Dict[str, object]) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric {name!r} already registered with another type")

    # ------------------------------------------------------------------
    # recording conveniences (the component-side API)
    # ------------------------------------------------------------------
    def count(self, name: str, amount=1) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain sorted dict of everything recorded (JSON-stable)."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {
                name: {
                    "count": hist.count,
                    "sum": hist.total,
                    "mean": hist.mean,
                    "p50": hist.quantile(0.50),
                    "p99": hist.quantile(0.99),
                    "buckets": hist.nonzero_buckets(),
                }
                for name, hist in sorted(self._histograms.items())
            },
        }

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition format (no timestamps)."""
        lines: List[str] = []
        for name in sorted(self._counters):
            metric = _sanitize(f"{prefix}_{name}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(self._counters[name].value)}")
        for name in sorted(self._gauges):
            metric = _sanitize(f"{prefix}_{name}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(self._gauges[name].value)}")
        for name, hist in sorted(self._histograms.items()):
            metric = _sanitize(f"{prefix}_{name}")
            lines.append(f"# TYPE {metric} histogram")
            for label, running in hist.cumulative():
                lines.append(f'{metric}_bucket{{le="{label}"}} {running}')
            lines.append(f"{metric}_sum {_format_value(hist.total)}")
            lines.append(f"{metric}_count {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


def _sanitize(name: str) -> str:
    out = []
    for char in name:
        out.append(char if char.isalnum() or char == "_" else "_")
    return "".join(out)


def _format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))
