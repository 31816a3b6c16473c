"""Metrics registry: counters, histograms, registry semantics and the
Prometheus/snapshot exports."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (DEFAULT_LATENCY_BUCKETS, Counter, Gauge,
                               Histogram, MetricsRegistry)
from repro.obs.probe import Probe


class TestCounter:
    def test_increments(self):
        c = Counter("ops")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("ops").inc(-1)

    def test_accumulates_seconds(self):
        c = Counter("busy")
        c.inc(1.5e-6)
        c.inc(0.5e-6)
        assert c.value == pytest.approx(2e-6)


class TestHistogram:
    def test_default_buckets_are_fixed_and_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-7)
        assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(10.0)

    def test_observe_lands_in_bucket(self):
        h = Histogram("lat", bounds=(1e-6, 1e-3, 1.0))
        h.observe(5e-7)    # <= 1e-6
        h.observe(1e-6)    # inclusive upper edge
        h.observe(2e-4)    # <= 1e-3
        h.observe(50.0)    # overflow
        assert h.counts == [2, 1, 0]
        assert h.overflow == 1
        assert h.count == 4
        assert h.mean == pytest.approx((5e-7 + 1e-6 + 2e-4 + 50.0) / 4)

    def test_cumulative_ends_with_inf(self):
        h = Histogram("lat", bounds=(1.0, 2.0))
        h.observe(0.5)
        h.observe(3.0)
        cum = h.cumulative()
        assert cum[-1] == ("+Inf", 2)
        assert cum[0] == ("1", 1)

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("lat", bounds=(2.0, 1.0))

    def test_quantile_within_one_bucket_of_exact(self):
        """The estimate must land in the same bucket as the exact
        nearest-rank sample quantile (= within one bucket width)."""
        import random
        rng = random.Random(7)
        samples = [rng.uniform(1e-6, 5e-3) for _ in range(500)]
        h = Histogram("lat")
        for value in samples:
            h.observe(value)
        bounds = (0.0,) + tuple(h.bounds)
        ordered = sorted(samples)
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = ordered[max(1, min(len(ordered),
                                       round(q * len(ordered)))) - 1]
            estimate = h.quantile(q)
            bucket = next(i for i in range(1, len(bounds))
                          if exact <= bounds[i])
            assert bounds[bucket - 1] <= estimate <= bounds[bucket], \
                f"q={q}: {estimate} outside bucket of exact {exact}"

    def test_quantile_single_bucket_interpolates_geometrically(self):
        h = Histogram("lat", bounds=(1e-6, 1e-3, 1.0))
        for _ in range(4):
            h.observe(2e-4)  # all land in the (1e-6, 1e-3] bucket
        # rank 2 of 4 => position 0.5, geometric midpoint of the bucket
        assert h.quantile(0.5) == pytest.approx(
            1e-6 * (1e-3 / 1e-6) ** 0.5)

    def test_quantile_edges_and_overflow(self):
        h = Histogram("lat", bounds=(1.0, 2.0))
        assert h.quantile(0.5) == 0.0  # empty
        h.observe(0.5)
        h.observe(100.0)  # overflow
        # overflow samples report the last finite bound
        assert h.quantile(1.0) == 2.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_snapshot_carries_p50_p99(self):
        reg = MetricsRegistry()
        for value in (1e-5, 2e-5, 3e-5):
            reg.observe("lat", value)
        snap = reg.snapshot()["histograms"]["lat"]
        assert snap["p50"] == reg.histogram("lat").quantile(0.50)
        assert snap["p99"] == reg.histogram("lat").quantile(0.99)


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")

    def test_cross_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.count("x")
        with pytest.raises(ValueError):
            reg.observe("x", 1.0)

    def test_snapshot_is_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.count("z.ops", 2)
        reg.count("a.ops")
        reg.observe("lat", 1e-5)
        reg.set_gauge("depth", 4)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.ops", "z.ops"]
        assert snap["counters"]["z.ops"] == 2
        assert snap["gauges"]["depth"] == 4
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["histograms"]["lat"]["sum"] == pytest.approx(1e-5)

    def test_snapshot_identical_across_identical_runs(self):
        def run():
            reg = MetricsRegistry()
            for value in (1e-6, 3e-4, 2e-2):
                reg.observe("lat", value)
                reg.count("ops")
            return reg.snapshot()
        assert run() == run()

    def test_probe_accumulates_line_busy_time(self):
        reg = MetricsRegistry()
        probe = Probe(metrics=reg)
        probe.page_read("ch0/bk0", "ch0", 0.0, 1e-5, 1e-5, 2e-5, 256)
        probe.page_program("ch0", "ch0/bk1", 5e-5, 7e-5, 7e-5, 9e-5, 256)
        snap = reg.snapshot()
        assert snap["counters"]["timeline.ch0.busy_seconds"] == \
            pytest.approx(3e-5)
        assert snap["counters"]["timeline.ch0.reservations"] == 2

    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.count("flash.pages_read", 7)
        reg.observe("sched.latency", 0.5)
        text = reg.to_prometheus(prefix="repro")
        assert "# TYPE repro_flash_pages_read counter" in text
        assert "repro_flash_pages_read 7" in text
        assert "# TYPE repro_sched_latency histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_sched_latency_count 1" in text
        assert text.endswith("\n")

    def test_clear(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.clear()
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("depth")
        g.set(3)
        g.set(1)
        assert g.value == 1
