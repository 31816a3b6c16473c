"""Tests for the page-mapped FTL and its striped allocation."""

import pytest

from repro.ftl import OutOfSpaceError, PageMapFTL, PlaneAllocator
from repro.nvm import Geometry, index_to_ppa


@pytest.fixture
def geometry():
    return Geometry(channels=4, banks_per_channel=2, blocks_per_bank=4,
                    pages_per_block=8, page_size=256)


@pytest.fixture
def ftl(geometry):
    return PageMapFTL(geometry)


class TestStripeTarget:
    def test_consecutive_lpns_cycle_channels(self, ftl):
        channels = [ftl.stripe_target(lpn)[0] for lpn in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_banks_cycle_after_channels(self, ftl):
        banks = [ftl.stripe_target(lpn)[1] for lpn in range(0, 16, 4)]
        assert banks == [0, 1, 0, 1]


class TestAllocate:
    def test_allocation_honours_stripe_target(self, ftl, geometry):
        for lpn in range(16):
            ppa, old = ftl.allocate(lpn)
            assert old is None
            ppa = index_to_ppa(ppa, geometry)
            assert (ppa.channel, ppa.bank) == ftl.stripe_target(lpn)

    def test_overwrite_invalidates_old(self, ftl, geometry):
        first, _ = ftl.allocate(0)
        second, old = ftl.allocate(0)
        assert old == first
        assert second != first
        first, second = (index_to_ppa(p, geometry) for p in (first, second))
        assert (second.channel, second.bank) == (first.channel, first.bank)
        plane = ftl.planes[(first.channel, first.bank)]
        assert plane.blocks[first.block].owners[first.page] is None

    def test_lookup(self, ftl):
        assert ftl.lookup(5) is None
        ppa, _ = ftl.allocate(5)
        assert ftl.lookup(5) == ppa

    def test_trim(self, ftl):
        ppa, _ = ftl.allocate(3)
        assert ftl.trim(3) == ppa
        assert ftl.lookup(3) is None
        assert ftl.trim(3) is None

    def test_mapped_pages(self, ftl):
        for lpn in range(10):
            ftl.allocate(lpn)
        assert ftl.mapped_pages() == 10


class TestPlaneAllocator:
    def test_exhaustion_raises(self, geometry):
        plane = PlaneAllocator(0, 0, geometry)
        for lpn in range(geometry.pages_per_bank):
            plane.allocate_page(lpn)
        with pytest.raises(OutOfSpaceError):
            plane.allocate_page(0)

    def test_free_page_count_decreases(self, geometry):
        plane = PlaneAllocator(0, 0, geometry)
        start = plane.free_page_count()
        plane.allocate_page(0)
        assert plane.free_page_count() == start - 1

    def test_release_returns_block_to_pool(self, geometry):
        plane = PlaneAllocator(0, 0, geometry)
        pages = [plane.allocate_page(lpn)
                 for lpn in range(geometry.pages_per_block)]
        block = index_to_ppa(pages[0], geometry).block
        for ppa in pages:
            plane.invalidate(ppa)
        plane.release_block(block)
        assert plane.free_page_count() == geometry.pages_per_bank
        assert plane.blocks[block].erase_count == 1

    def test_victims_are_fully_written_most_invalid_first(self, geometry):
        plane = PlaneAllocator(0, 0, geometry)
        block_a = [plane.allocate_page(lpn) for lpn in range(8)]
        block_b = [plane.allocate_page(lpn) for lpn in range(8, 16)]
        # invalidate more pages in block B
        plane.invalidate(block_a[0])
        for ppa in block_b[:4]:
            plane.invalidate(ppa)
        victims = plane.victim_candidates()
        block_a, block_b = (index_to_ppa(pages[0], geometry).block
                            for pages in (block_a, block_b))
        assert victims[0] == block_b
        assert set(victims) == {block_a, block_b}

    def test_active_block_is_not_a_victim(self, geometry):
        plane = PlaneAllocator(0, 0, geometry)
        plane.allocate_page(0)  # partially fills the active block
        assert plane.victim_candidates() == []

    def test_lazy_block_state(self, geometry):
        plane = PlaneAllocator(0, 0, geometry)
        assert plane.blocks == {}
        plane.allocate_page(0)
        assert len(plane.blocks) == 1
