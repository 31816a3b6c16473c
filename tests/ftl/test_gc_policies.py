"""Tests for the GC victim-selection policies."""

import numpy as np
import pytest

from repro.ftl import BaselineSSD, GarbageCollector, PageMapFTL
from repro.ftl.mapping import PlaneAllocator
from repro.nvm import FlashArray, Geometry, NvmTiming, index_to_ppa
from repro.nvm.profiles import TINY_TEST


@pytest.fixture
def plane():
    geometry = Geometry(channels=1, banks_per_channel=1, blocks_per_bank=6,
                        pages_per_block=4, page_size=64)
    return PlaneAllocator(0, 0, geometry)


def _fill_block(plane):
    return [plane.allocate_page(lpn) for lpn in range(4)]


def _block(plane, ppa) -> int:
    """The block number of page index ``ppa``."""
    return index_to_ppa(ppa, plane.geometry).block


class TestVictimPolicies:
    def test_greedy_picks_most_invalid(self, plane):
        a = _fill_block(plane)
        b = _fill_block(plane)
        plane.invalidate(a[0])
        for ppa in b[:3]:
            plane.invalidate(ppa)
        assert plane.victim_candidates("greedy")[0] == _block(plane, b[0])

    def test_fifo_picks_oldest(self, plane):
        a = _fill_block(plane)
        b = _fill_block(plane)
        # b is emptier, but a filled first
        for ppa in b[:3]:
            plane.invalidate(ppa)
        assert plane.victim_candidates("fifo")[0] == _block(plane, a[0])

    def test_cost_benefit_weighs_age_against_utilization(self, plane):
        a = _fill_block(plane)        # old, fully live
        b = _fill_block(plane)        # newer, mostly dead
        for ppa in b[:3]:
            plane.invalidate(ppa)
        # a is older but 100 % live => score 0; b wins
        assert plane.victim_candidates("cost-benefit")[0] == _block(plane, b[0])
        # now kill a too: a becomes old AND empty => a wins
        for ppa in a:
            plane.invalidate(ppa)
        assert plane.victim_candidates("cost-benefit")[0] == _block(plane, a[0])

    def test_unknown_policy(self, plane):
        _fill_block(plane)
        with pytest.raises(ValueError):
            plane.victim_candidates("magic")

    def test_collector_rejects_unknown_policy(self):
        geometry = Geometry(channels=1, banks_per_channel=1)
        timing = NvmTiming()
        flash = FlashArray(geometry, timing, store_data=False)
        with pytest.raises(ValueError):
            GarbageCollector(PageMapFTL(geometry), flash, policy="bogus")


class TestPoliciesEndToEnd:
    @pytest.mark.parametrize("policy", ["greedy", "fifo", "cost-benefit"])
    def test_churn_survives_under_every_policy(self, policy, rng):
        profile = TINY_TEST
        ssd = BaselineSSD(profile, store_data=True)
        ssd.gc.policy = policy
        stride = (profile.geometry.channels
                  * profile.geometry.banks_per_channel)
        lpns = [i * stride for i in range(4)]
        marker = np.full(ssd.page_size, 9, dtype=np.uint8)
        for round_id in range(40):
            ssd.write_lpns(lpns, float(round_id),
                           data=[marker] * len(lpns))
        assert ssd.gc.total_erased > 0
        result = ssd.read_lpns(lpns, 1000.0, with_data=True)
        for page in result.data:
            assert page[0] == 9

    def test_greedy_relocates_least_data(self, rng):
        """Greedy reclaims the emptiest blocks, so it copies no more
        live data than FIFO under the same churn."""
        def churn(policy):
            ssd = BaselineSSD(TINY_TEST, store_data=False)
            ssd.gc.policy = policy
            stride = (TINY_TEST.geometry.channels
                      * TINY_TEST.geometry.banks_per_channel)
            rng_local = np.random.default_rng(7)
            for round_id in range(120):
                lpn = int(rng_local.integers(0, 6)) * stride
                ssd.write_lpns([lpn], float(round_id))
            return ssd.gc.total_relocated

        assert churn("greedy") <= churn("fifo")
