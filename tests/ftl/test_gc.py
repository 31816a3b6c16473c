"""Tests for the FTL garbage collector."""

import random

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.ftl import BaselineSSD, GarbageCollector, PageMapFTL, wear_report
from repro.ftl.mapping import OutOfSpaceError
from repro.ftl.wear import erases_by_plane
from repro.nvm import FlashArray, Geometry, NvmTiming, TINY_TEST, index_to_ppa
from tests.owner_slots import assert_live_counts


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
    ppa, _old = ftl.allocate(lpn)
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
        assert gc.planes[(0, 0)].free_pages < gc.trigger_mark
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
        assert gc.planes[(0, 0)].free_pages < gc.trigger_mark
        result = gc.collect(0, 0, 100.0)
        assert result.ran
        assert result.blocks_erased >= 1
        # the forward map still resolves and data is preserved
        assert flash.page_data(ftl.lookup(0))[0] == 14

    def test_collect_relocates_live_data(self, small_world):
        geometry, flash, ftl, gc = small_world
        for lpn in range(3):
            _write(ftl, flash, gc, lpn, 100 + lpn, now=0.0)
        # stale churn on another lpn to create victims
        for value in range(12):
            _write(ftl, flash, gc, 99, value, now=1.0)
        gc.collect(0, 0, 50.0)
        for lpn in range(3):
            assert flash.page_data(ftl.lookup(lpn))[0] == 100 + lpn

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


    def test_nested_collection_leaves_the_victim_alone(self, small_world):
        """A retirement inside a collection collects the plane when it
        has no free page. That nested collection must not take the
        outer victim (or the block being retired): erasing the victim
        under the outer loop, which then refills it and erases it again,
        freed four live pages and retired the bad block twice. With
        both blocks off limits, a plane with no spare left raises.

        The raise must leave every mapped page live: the valid bits of
        the page the retirement was moving (LPN 0) and of the outer
        collection's page in flight (LPN 3) were cleared, so a later
        collection of those blocks would have erased live data."""
        geometry, flash, ftl, gc = small_world
        for lpn in range(12):
            _write(ftl, flash, gc, lpn, lpn, now=float(lpn))
        # block 0 keeps one live page (LPN 3); block 3 is the active
        # block with one free page, and it grows bad
        for lpn in range(3):
            _write(ftl, flash, gc, lpn, 100 + lpn, now=20.0 + lpn)
        flash.attach_faults(FaultInjector(FaultConfig(
            plan=FaultPlan().mark_block_bad(0, 0, 3, at=30.0))))
        with pytest.raises(OutOfSpaceError):
            gc.collect(0, 0, 40.0)
        assert gc.total_erased == gc.total_retired == 0
        plane = ftl.planes[(0, 0)]
        for lpn in range(12):
            want = 100 + lpn if lpn < 3 else lpn
            assert flash.page_data(ftl.lookup(lpn), verify=False)[0] == want
            ppa = index_to_ppa(ftl.lookup(lpn), geometry)
            assert plane.blocks[ppa.block].owners[ppa.page] == lpn

    def test_an_overwrite_on_a_full_plane_keeps_the_old_page_live(self):
        """Fill 441 of 460 logical pages, then overwrite single LPNs
        until the device runs out of space. The overwrite that raises
        must leave its LPN on its old page, still live: invalidating
        the old page before the bind left it mapped to a page that a
        later collection erases and reuses."""
        ssd = BaselineSSD(TINY_TEST, store_data=True)
        geometry = TINY_TEST.geometry

        def page(value):
            payload = np.zeros(geometry.page_size, dtype=np.uint8)
            payload[:4] = np.frombuffer(value.to_bytes(4, "little"),
                                        dtype=np.uint8)
            return payload

        last = {lpn: lpn for lpn in range(441)}
        ssd.write_lpns(list(last), 0.0, data=[page(v) for v in last.values()])
        rng = random.Random(1)
        now = 1.0
        value = len(last)
        with pytest.raises(OutOfSpaceError):
            while True:
                lpn = rng.randrange(441)
                ssd.write_lpns([lpn], now, data=[page(value)])
                last[lpn] = value
                value += 1
                now += 1e-3
        assert set(ssd.ftl.map) == set(last)
        for lpn, want in last.items():
            ppa = index_to_ppa(ssd.ftl.map[lpn], geometry)
            plane = ssd.ftl.planes[(ppa.channel, ppa.bank)]
            assert plane.blocks[ppa.block].owners[ppa.page] == lpn
            data = ssd.flash.page_data(ssd.ftl.map[lpn], verify=False)
            assert int.from_bytes(data[:4].tobytes(), "little") == want, lpn
        # the collections that stopped for want of a free page left every
        # victim's live count equal to its filled slots
        assert_live_counts(ssd.ftl.planes)


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


class TestTriggerMark:
    """Both collectors and the FTL write step test the trigger as an
    integer free-page count; it must equal the float free-fraction test
    at every free count."""

    GEOMETRIES = [(1, 1, 4, 4), (4, 2, 8, 8), (4, 2, 16, 8),
                  (32, 8, 16, 64), (2, 3, 7, 5), (1, 1, 1, 3),
                  (8, 8, 1024, 64)]
    THRESHOLDS = [0.10, 0.20, 0.9, 0.25, 0.3, 1 / 3, 0.7, 0.05, 0.15,
                  1e-9, 1 - 1e-9, 0.5 + 1e-12]

    def test_low_mark_equals_the_float_test_at_every_free_count(self):
        from repro.ftl.gc import _low_mark
        checked = 0
        for channels, banks, blocks, pages in self.GEOMETRIES:
            per_bank = Geometry(channels=channels, banks_per_channel=banks,
                                blocks_per_bank=blocks,
                                pages_per_block=pages,
                                page_size=64).pages_per_bank
            for threshold in self.THRESHOLDS:
                # the NDS background watermark is derived the same way
                for mark_of in (threshold, min(0.9, 2.0 * threshold)):
                    mark = _low_mark(mark_of, per_bank)
                    for free in range(per_bank + 1):
                        assert (free < mark) == \
                            (free / per_bank < mark_of), \
                            (per_bank, mark_of, free, mark)
                        checked += 1
        assert checked > 100000

    @pytest.mark.parametrize("threshold", [0.10, 0.20, 0.9])
    def test_trigger_mark_is_the_float_test(self, threshold):
        geometry = TINY_TEST.geometry
        flash = FlashArray(geometry, TINY_TEST.timing)
        ftl = PageMapFTL(geometry)
        gc = GarbageCollector(ftl, flash, threshold=threshold)
        plane = ftl.planes[(0, 0)]
        per_bank = geometry.pages_per_bank
        for _ in range(per_bank):
            assert (gc.planes[(0, 0)].free_pages < gc.trigger_mark) == \
                (plane.free_pages / per_bank < threshold)
            plane.allocate_page(0)
        assert gc.planes[(0, 0)].free_pages < gc.trigger_mark
