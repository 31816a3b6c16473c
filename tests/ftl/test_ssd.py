"""Tests for the baseline SSD device model."""

import numpy as np
import pytest

from repro.ftl import BaselineSSD
from repro.nvm import TINY_TEST


@pytest.fixture
def ssd():
    return BaselineSSD(TINY_TEST, store_data=True)


class TestReadWrite:
    def test_roundtrip_pages(self, ssd, rng):
        data = [rng.integers(0, 256, ssd.page_size).astype(np.uint8)
                for _ in range(8)]
        ssd.write_lpns(list(range(8)), 0.0, data=data)
        result = ssd.read_lpns(list(range(8)), 0.0, with_data=True)
        for expected, actual in zip(data, result.data):
            assert np.array_equal(expected, actual)

    def test_unwritten_lpn_reads_zero(self, ssd):
        result = ssd.read_lpns([5], 0.0, with_data=True)
        assert result.data[0].sum() == 0
        assert result.stats.get_count("device_pages_unmapped") == 1

    def test_overwrite_returns_new_data(self, ssd):
        ones = np.ones(ssd.page_size, dtype=np.uint8)
        twos = np.full(ssd.page_size, 2, dtype=np.uint8)
        ssd.write_lpns([0], 0.0, data=[ones])
        ssd.write_lpns([0], 0.0, data=[twos])
        result = ssd.read_lpns([0], 0.0, with_data=True)
        assert result.data[0][0] == 2

    def test_lpn_out_of_range(self, ssd):
        with pytest.raises(ValueError):
            ssd.read_lpns([ssd.logical_pages], 0.0)
        with pytest.raises(ValueError):
            ssd.write_lpns([-1], 0.0)

    def test_logical_capacity_excludes_overprovisioning(self, ssd):
        assert ssd.logical_pages == int(
            TINY_TEST.geometry.total_pages * 0.9)


class TestGcIntegration:
    def test_sustained_overwrites_trigger_gc(self):
        ssd = BaselineSSD(TINY_TEST, store_data=True)
        # One plane holds 64 pages on the tiny device; hammer one stripe
        # target far beyond its capacity so GC must reclaim space.
        lpns = [i * TINY_TEST.geometry.channels
                * TINY_TEST.geometry.banks_per_channel for i in range(4)]
        marker = np.full(ssd.page_size, 7, dtype=np.uint8)
        for round_id in range(40):
            ssd.write_lpns(lpns, float(round_id), data=[marker] * len(lpns))
        assert ssd.gc.total_erased > 0
        # data survives collection
        result = ssd.read_lpns(lpns, 1000.0, with_data=True)
        for page in result.data:
            assert page[0] == 7

    def test_trim_releases_reverse_entries(self, ssd):
        ssd.write_lpns([0, 1], 0.0)
        def live():
            return sum(state.live for plane in ssd.ftl.planes.values()
                       for state in plane.blocks.values())
        before = live()
        ssd.trim_lpns([0])
        assert live() == before - 1
