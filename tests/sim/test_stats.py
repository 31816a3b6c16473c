"""Tests for the event counters."""

from repro.sim import StatSet


class TestStatSet:
    def test_counting(self):
        stats = StatSet()
        stats.count("pages")
        stats.count("pages", 4)
        assert stats.get_count("pages") == 5
        assert stats.get_count("missing") == 0
