"""Tests for statistics accounting."""

import pytest

from repro.sim import StatSet, effective_bandwidth


class TestEffectiveBandwidth:
    def test_basic(self):
        assert effective_bandwidth(1000, 2.0) == 500.0

    def test_zero_interval(self):
        assert effective_bandwidth(1000, 0.0) == 0.0

    def test_negative_interval(self):
        assert effective_bandwidth(1000, -1.0) == 0.0


class TestStatSet:
    def test_counting(self):
        stats = StatSet()
        stats.count("pages")
        stats.count("pages", 4)
        assert stats.get_count("pages") == 5
        assert stats.get_count("missing") == 0

    def test_time_accumulation(self):
        stats = StatSet()
        stats.add_time("cpu", 1.5)
        stats.add_time("cpu", 0.5)
        assert stats.get_time("cpu") == pytest.approx(2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            StatSet().add_time("cpu", -1.0)

    def test_merge(self):
        a = StatSet()
        a.count("x", 2)
        a.add_time("t", 1.0)
        b = StatSet()
        b.count("x", 3)
        b.count("y")
        b.add_time("t", 2.0)
        a.merge(b)
        assert a.get_count("x") == 5
        assert a.get_count("y") == 1
        assert a.get_time("t") == pytest.approx(3.0)

    def test_merged_classmethod(self):
        parts = []
        for i in range(3):
            s = StatSet()
            s.count("n", i)
            parts.append(s)
        assert StatSet.merged(parts).get_count("n") == 3

    def test_as_dict_suffixes_times(self):
        stats = StatSet()
        stats.count("ios", 7)
        stats.add_time("link", 0.25)
        flat = stats.as_dict()
        assert flat["ios"] == 7
        assert flat["link_s"] == 0.25
