"""Tests for the FTL garbage collector."""

import random

import numpy as np
import pytest

from repro.ftl import BaselineSSD, GarbageCollector, PageMapFTL, wear_report
from repro.ftl.mapping import OutOfSpaceError
from repro.ftl.wear import erases_by_plane
from repro.nvm import FlashArray, Geometry, NvmTiming, TINY_TEST


@pytest.fixture
def small_world():
    geometry = Geometry(channels=1, banks_per_channel=1, blocks_per_bank=4,
                        pages_per_block=4, page_size=64)
    timing = NvmTiming(t_read=1e-6, t_program=5e-6, t_erase=20e-6,
                       channel_bandwidth=100e6)
    flash = FlashArray(geometry, timing, store_data=True)
    ftl = PageMapFTL(geometry)
    gc = GarbageCollector(ftl, flash, threshold=0.30)
    return geometry, flash, ftl, gc


def _write(ftl, flash, gc, lpn, value, now=0.0):
    ppa, old = ftl.allocate(lpn)
    gc.note_alloc(lpn, ppa, old)
    flash.program_pages([ppa], now,
                        data=[np.full(4, value, dtype=np.uint8)])
    return ppa


class TestCollect:
    def test_collect_stops_when_nothing_is_reclaimable(self, small_world):
        """Every full block fully valid and the plane under threshold:
        moving a block gains no space, so collect must return instead
        of relocating forever."""
        geometry, flash, ftl, gc = small_world
        for lpn in range(12):
            _write(ftl, flash, gc, lpn, lpn, now=float(lpn))
        assert gc.needs_collection(0, 0)
        result = gc.collect(0, 0, 100.0)
        assert not result.ran
        assert result.pages_relocated == 0
        assert ftl.planes[(0, 0)].free_page_count() == 4

    def test_collect_reclaims_invalid_pages(self, small_world):
        geometry, flash, ftl, gc = small_world
        # Fill the plane with overwrites of the same LPN: 15 writes out of
        # 16 pages, 14 of them stale.
        for value in range(15):
            _write(ftl, flash, gc, 0, value, now=float(value))
        assert gc.needs_collection(0, 0)
        result = gc.collect(0, 0, 100.0)
        assert result.ran
        assert result.blocks_erased >= 1
        # the forward map still resolves and data is preserved
        ppa = ftl.lookup(0)
        assert flash.page_data(ppa)[0] == 14

    def test_collect_relocates_live_data(self, small_world):
        geometry, flash, ftl, gc = small_world
        for lpn in range(3):
            _write(ftl, flash, gc, lpn, 100 + lpn, now=0.0)
        # stale churn on another lpn to create victims
        for value in range(12):
            _write(ftl, flash, gc, 99, value, now=1.0)
        gc.collect(0, 0, 50.0)
        for lpn in range(3):
            ppa = ftl.lookup(lpn)
            assert flash.page_data(ppa)[0] == 100 + lpn

    def test_threshold_validation(self, small_world):
        geometry, flash, ftl, _ = small_world
        with pytest.raises(ValueError):
            GarbageCollector(ftl, flash, threshold=0.0)
        with pytest.raises(ValueError):
            GarbageCollector(ftl, flash, threshold=1.0)

    def test_no_collection_when_above_threshold(self, small_world):
        geometry, flash, ftl, gc = small_world
        _write(ftl, flash, gc, 0, 1)
        result = gc.collect(0, 0, 10.0)
        assert not result.ran

    def test_incomplete_collection_counts_what_it_moved(self):
        """Fill 441 of 460 logical pages, then overwrite single LPNs
        until the device runs out of space: a collection that stops for
        want of a free page still counts the pages it relocated, so
        every flash program is a host page or a GC move."""
        ssd = BaselineSSD(TINY_TEST, store_data=False)
        ssd.write_lpns(list(range(441)), 0.0)
        host_pages = 441
        rng = random.Random(1)
        now = 1.0
        with pytest.raises(OutOfSpaceError):
            while True:
                ssd.write_lpns([rng.randrange(441)], now)
                host_pages += 1
                now += 1e-3
        assert ssd.gc.total_relocated > 0
        assert (ssd.flash.stats.counters["pages_programmed"]
                == host_pages + ssd.gc.total_relocated)


class TestWear:
    def test_wear_report_counts_gc_erases(self):
        ssd = BaselineSSD(TINY_TEST, store_data=False)
        stride = (TINY_TEST.geometry.channels
                  * TINY_TEST.geometry.banks_per_channel)
        lpns = [i * stride for i in range(4)]
        for round_id in range(40):
            ssd.write_lpns(lpns, float(round_id))
        report = wear_report(ssd.ftl)
        assert report.total_erases == ssd.gc.total_erased
        assert report.max_erases >= 1
        assert report.min_erases == 0  # untouched planes exist
        assert report.spread >= 1

    def test_erases_by_plane_keys(self):
        ssd = BaselineSSD(TINY_TEST, store_data=False)
        by_plane = erases_by_plane(ssd.ftl)
        assert len(by_plane) == (TINY_TEST.geometry.channels
                                 * TINY_TEST.geometry.banks_per_channel)
        assert all(v == 0 for v in by_plane.values())
