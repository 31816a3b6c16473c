"""Grown-bad-block management in the baseline FTL, and the wear-report
regressions (empty device, retired-block accounting)."""

from __future__ import annotations

import numpy as np

from repro.core import SpaceTranslationLayer
from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.ftl import (BaselineSSD, PageMapFTL, WearReport, erases_by_plane,
                       wear_report)
from repro.nvm import TINY_TEST, FlashArray, index_to_ppa


def _planeless_ftl() -> PageMapFTL:
    """An FTL with zero materialized planes (degenerate geometry)."""
    ftl = PageMapFTL(TINY_TEST.geometry)
    ftl.planes = {}
    return ftl


def _ssd(plan=None) -> BaselineSSD:
    ssd = BaselineSSD(TINY_TEST, store_data=True)
    if plan is not None:
        ssd.flash.attach_faults(FaultInjector(FaultConfig(plan=plan)))
    return ssd


class TestGrownBadBlocks:
    def test_program_fail_retires_block_and_data_survives(self):
        """A plan-marked bad block fails its first program; the FTL must
        retire it, re-drive the write elsewhere, and keep every byte."""
        ssd = _ssd(FaultPlan().mark_block_bad(0, 0, 0, at=0.0))
        lpns = list(range(32))
        payload = [np.full(ssd.page_size, i, dtype=np.uint8) for i in lpns]
        write = ssd.write_lpns(lpns, 0.0, data=payload)
        assert write.end_time > 0.0
        readback = ssd.read_lpns(lpns, write.end_time, with_data=True)
        for expected, got in zip(payload, readback.data):
            assert np.array_equal(expected, got)
        faults = ssd.flash.faults
        assert faults.stats.counters["program_fails"] >= 1
        assert faults.stats.counters["grown_bad_blocks"] >= 1
        assert ssd.gc.total_retired >= 1

    def test_retired_block_is_out_of_service(self):
        ssd = _ssd(FaultPlan().mark_block_bad(0, 0, 0, at=0.0))
        lpns = list(range(32))
        ssd.write_lpns(lpns, 0.0,
                       data=[np.zeros(ssd.page_size, np.uint8) for _ in lpns])
        plane = ssd.ftl.planes[(0, 0)]
        state = plane.blocks[0]
        assert state.retired
        assert 0 not in plane.free_blocks
        assert all(victim != 0 for victim in plane.victim_candidates())
        assert plane.retired_count() == 1

    def test_wear_report_counts_retired_blocks(self):
        ssd = _ssd(FaultPlan().mark_block_bad(0, 0, 0, at=0.0))
        lpns = list(range(16))
        ssd.write_lpns(lpns, 0.0,
                       data=[np.zeros(ssd.page_size, np.uint8) for _ in lpns])
        report = wear_report(ssd.ftl)
        assert report.retired_blocks == 1


class TestOutOfServiceAccounting:
    """Retiring a block keeps the plane's free-page counter and the
    collector's below-watermark set exact (TINY_TEST: 8 blocks × 8
    pages per plane; threshold 0.4 puts the watermark at 0.8, i.e.
    below 52 of 64 free pages)."""

    def _plane(self):
        flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing)
        stl = SpaceTranslationLayer(flash, gc_threshold=0.4)
        assert stl.gc.watermark == 0.8
        return stl.allocator.planes[(0, 0)], stl.gc.low_planes

    def test_retire_active_block_partway(self):
        plane, low = self._plane()
        pages = [plane.allocate_page(lpn) for lpn in range(10)]
        assert plane.active_block == 1  # block 0 full, block 1 at page 2
        assert plane.free_page_count() == 54
        assert (0, 0) not in low
        for ppa in pages[8:]:
            plane.invalidate(ppa)
        plane.retire_block(1)  # loses its 6-page unwritten tail
        assert plane.active_block is None
        assert plane.free_page_count() == 48
        assert (0, 0) in low
        for ppa in pages[:8]:
            plane.invalidate(ppa)
        plane.release_block(0)
        assert plane.free_page_count() == 56
        assert (0, 0) not in low
        assert index_to_ppa(plane.allocate_page(0), TINY_TEST.geometry) \
            .block == 2

    def test_retire_block_in_free_pool(self):
        plane, low = self._plane()
        plane.retire_block(5)
        assert 5 not in plane.free_blocks
        assert plane.free_page_count() == 56
        assert (0, 0) not in low
        plane.retire_block(6)
        assert plane.free_page_count() == 48
        assert (0, 0) in low
        plane.retire_block(6)  # already out of service: no double count
        assert plane.free_page_count() == 48
        blocks = {index_to_ppa(plane.allocate_page(lpn), TINY_TEST.geometry)
                  .block for lpn in range(48)}
        assert blocks == {0, 1, 2, 3, 4, 7}
        assert plane.free_page_count() == 0


class TestWearReportRegressions:
    def test_empty_ftl_is_all_zero_not_an_exception(self):
        """Zero materialized blocks used to ValueError/ZeroDivisionError
        (``min()``/``max()`` of an empty list, division by zero); both
        the fresh device and the degenerate no-planes case must yield an
        all-zero report."""
        for ftl in (PageMapFTL(TINY_TEST.geometry), _planeless_ftl()):
            report = wear_report(ftl)
            assert isinstance(report, WearReport)
            assert report.total_erases == 0
            assert report.min_erases == 0 and report.max_erases == 0
            assert report.mean_erases == 0.0
            assert report.retired_blocks == 0
            assert report.spread == 0

    def test_fresh_device_after_one_write_is_still_zero_wear(self):
        ssd = _ssd()
        ssd.write_lpns([0], 0.0, data=[np.zeros(ssd.page_size, np.uint8)])
        report = wear_report(ssd.ftl)
        assert report.total_erases == 0
        assert report.mean_erases == 0.0

    def test_erases_by_plane_is_exported_and_consistent(self):
        ssd = _ssd()
        lpns = list(range(48))
        data = [np.zeros(ssd.page_size, np.uint8) for _ in lpns]
        end = 0.0
        for _ in range(16):  # overwrite churn to force GC erases
            end = ssd.write_lpns(lpns, end, data=data).end_time
        per_plane = erases_by_plane(ssd.ftl)
        assert sum(per_plane.values()) == wear_report(ssd.ftl).total_erases
        assert sum(per_plane.values()) > 0
