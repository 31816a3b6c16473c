"""Tests for FCFS resource timelines."""

import random

import pytest

from repro.sim import MultiTimeline, Timeline


class TestTimeline:
    def test_back_to_back_reservations(self):
        line = Timeline("t")
        assert line.reserve(0.0, 2.0) == (0.0, 2.0)
        assert line.reserve(0.0, 3.0) == (2.0, 5.0)
        assert line.free_at == 5.0

    def test_gap_when_arrival_is_late(self):
        line = Timeline("t")
        line.reserve(0.0, 1.0)
        start, end = line.reserve(10.0, 1.0)
        assert (start, end) == (10.0, 11.0)

    def test_busy_time_excludes_gaps(self):
        line = Timeline("t")
        line.reserve(0.0, 1.0)
        line.reserve(5.0, 2.0)
        assert line.busy_time == pytest.approx(3.0)
        assert line.utilization(10.0) == pytest.approx(0.3)

    def test_zero_duration_allowed(self):
        line = Timeline("t")
        assert line.reserve(1.0, 0.0) == (1.0, 1.0)

    def test_negative_duration_rejected(self):
        line = Timeline("t")
        with pytest.raises(ValueError):
            line.reserve(0.0, -1.0)

    def test_peek_does_not_reserve(self):
        line = Timeline("t")
        line.reserve(0.0, 4.0)
        assert line.peek(1.0) == 4.0
        assert line.free_at == 4.0

    def test_reset(self):
        line = Timeline("t")
        line.reserve(0.0, 4.0)
        line.reset()
        assert line.free_at == 0.0
        assert line.busy_time == 0.0
        assert line.ops == 0

    def test_utilization_clamps_to_one(self):
        line = Timeline("t")
        line.reserve(0.0, 5.0)
        assert line.utilization(1.0) == 1.0

    def test_utilization_of_empty_horizon(self):
        assert Timeline("t").utilization(0.0) == 0.0


class TestMultiTimeline:
    def test_dispatches_to_earliest_available(self):
        pool = MultiTimeline(2, "p")
        s1, e1, i1 = pool.reserve(0.0, 5.0)
        s2, e2, i2 = pool.reserve(0.0, 5.0)
        s3, e3, i3 = pool.reserve(0.0, 5.0)
        assert (s1, s2) == (0.0, 0.0)
        assert i1 != i2
        assert s3 == 5.0  # both busy until 5

    def test_reserve_on_pins_a_server(self):
        pool = MultiTimeline(3, "p")
        pool.reserve_on(1, 0.0, 4.0)
        start, _end = pool.reserve_on(1, 0.0, 1.0)
        assert start == 4.0

    def test_needs_at_least_one_server(self):
        with pytest.raises(ValueError):
            MultiTimeline(0)

    def test_aggregate_utilization(self):
        pool = MultiTimeline(2, "p")
        pool.reserve(0.0, 4.0)
        assert pool.utilization(4.0) == pytest.approx(0.5)
        assert pool.busy_time() == pytest.approx(4.0)

    def test_reset(self):
        pool = MultiTimeline(2, "p")
        pool.reserve(0.0, 4.0)
        pool.reset()
        assert pool.max_free_at() == 0.0


class TestWidePoolDispatch:
    def test_wide_pool_matches_plain_scan(self):
        """Randomized regression: dispatch over wide pools (16-256
        servers) must pick the same server as a first-minimal Python
        scan, for ties included."""
        rng = random.Random(7)
        for trial in range(50):
            count = rng.choice([16, 24, 32, 256])
            pool = MultiTimeline(count, "p")
            mirror = [0.0] * count
            for _op in range(40):
                earliest = rng.random() * 5.0
                duration = rng.choice([0.0, 1e-6, rng.random()])
                want_index = min(range(count),
                                 key=lambda i: (mirror[i], i))
                start, end, index = pool.reserve(earliest, duration)
                assert index == want_index, (trial, _op)
                want_start = max(earliest, mirror[index])
                assert start.hex() == want_start.hex()
                assert end.hex() == (want_start + duration).hex()
                mirror[index] = end
