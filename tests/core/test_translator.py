"""Tests for the Eq. 5 space translator."""

from unittest import mock

import pytest

from repro.core import Space, pages_for_region, translate, translate_region
from repro.nvm import Geometry


@pytest.fixture
def geometry():
    return Geometry(channels=4, banks_per_channel=2, page_size=256)


@pytest.fixture
def space(geometry):
    # bb = (16, 16), grid = (4, 4)
    return Space.create(1, (64, 64), 4, geometry)


class TestTranslate:
    def test_aligned_single_block(self, space):
        accesses = translate(space, (0, 0), (16, 16))
        assert len(accesses) == 1
        assert accesses[0].block_coord == (0, 0)
        assert accesses[0].is_full_block

    def test_aligned_multi_block(self, space):
        accesses = translate(space, (0, 0), (32, 32))
        assert {a.block_coord for a in accesses} == {
            (0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(a.is_full_block for a in accesses)

    def test_figure5_block_count(self, geometry):
        """Fig. 5: an 8192×8192 request over 128×128 blocks touches
        4096 = 64×64 building blocks."""
        big = Space.create(2, (16384, 16384), 4,
                           Geometry(channels=8, banks_per_channel=8,
                                    page_size=4096))
        assert big.bb == (128, 128)
        accesses = translate(big, (1, 0), (8192, 8192))
        assert len(accesses) == 64 * 64

    def test_unaligned_region_slices(self, space):
        accesses = translate_region(space, (8, 8), (16, 16))
        assert len(accesses) == 4
        by_coord = {a.block_coord: a for a in accesses}
        assert by_coord[(0, 0)].block_slice == ((8, 16), (8, 16))
        assert by_coord[(0, 0)].out_slice == ((0, 8), (0, 8))
        assert by_coord[(1, 1)].block_slice == ((0, 8), (0, 8))
        assert by_coord[(1, 1)].out_slice == ((8, 16), (8, 16))

    def test_out_slices_tile_the_request(self, space):
        accesses = translate_region(space, (3, 5), (30, 40))
        covered = 0
        for access in accesses:
            covered += access.element_count()
        assert covered == 30 * 40

    def test_blocks_emitted_in_row_major_grid_order(self, space):
        accesses = translate(space, (0, 0), (64, 64))
        coords = [a.block_coord for a in accesses]
        assert coords == sorted(coords)

    def test_region_bounds_checked(self, space):
        with pytest.raises(ValueError):
            translate_region(space, (60, 0), (16, 16))
        with pytest.raises(ValueError):
            translate_region(space, (0, 0), (0, 16))
        with pytest.raises(ValueError):
            translate_region(space, (0,), (16,))


class TestPagesForRegion:
    def test_full_block_touches_all_pages(self, space):
        pages = pages_for_region(space, ((0, 16), (0, 16)))
        assert pages == list(range(space.pages_per_block))

    def test_first_rows_touch_prefix_pages(self, space):
        # page holds 256 B = 64 elements = 4 block rows of 16 elements
        pages = pages_for_region(space, ((0, 4), (0, 16)))
        assert pages == [0]
        pages = pages_for_region(space, ((0, 8), (0, 16)))
        assert pages == [0, 1]

    def test_column_slice_touches_every_page(self, space):
        pages = pages_for_region(space, ((0, 16), (0, 4)))
        assert pages == list(range(space.pages_per_block))

    def test_single_element(self, space):
        assert pages_for_region(space, ((15, 16), (15, 16))) == [3]

    def test_1d_space_pages(self, geometry):
        space1d = Space.create(3, (4096,), 4, geometry)
        # bb = 256 elements = 1 KiB = 4 pages of 256 B
        assert space1d.bb == (256,)
        assert pages_for_region(space1d, ((0, 64),)) == [0]
        assert pages_for_region(space1d, ((60, 130),)) == [0, 1, 2]


class TestTranslationCacheEviction:
    """Regression: a full memo cache evicts one LRU entry instead of
    clearing wholesale (the old behaviour thrashed every working set
    one entry over the cap)."""

    def test_full_cache_keeps_recently_used_entries(self, geometry):
        from repro.core import translator

        space = Space.create(7, (64, 64), 4, geometry)
        with mock.patch.object(translator, "_CACHE_LIMIT", 4):
            hot = ((0, 0), (16, 16))
            translate_region(space, *hot)
            for i in range(1, 4):
                translate_region(space, (16 * i, 0), (16, 16))
            translate_region(space, *hot)  # hit: refresh recency
            before = space.translation_cache_stats()["region_hits"]
            # one more distinct region forces a single LRU eviction...
            translate_region(space, (0, 16), (16, 16))
            assert len(space._region_cache) == 4
            # ...and the hot entry survives it
            translate_region(space, *hot)
            after = space.translation_cache_stats()["region_hits"]
            assert after == before + 1

    def test_hot_entry_survives_overflowing_working_set(self, geometry):
        """A region re-accessed between every cold access stays resident
        while the working set overflows the cap: recency protects it.
        The old clear() dropped it at every overflow, so the hot region
        missed repeatedly despite being touched on every other access."""
        from repro.core import translator

        space = Space.create(8, (64, 64), 4, geometry)
        with mock.patch.object(translator, "_CACHE_LIMIT", 4):
            hot = ((0, 0), (16, 16))
            cold = [((16 * (i % 4), 16), (16, 16)) for i in range(8)]
            translate_region(space, *hot)
            for origin, extents in cold:
                translate_region(space, origin, extents)
                translate_region(space, *hot)
            stats = space.translation_cache_stats()
            assert stats["region_hits"] >= len(cold)
            assert len(space._region_cache) <= 4


class TestPerSpaceStats:
    """Regression: hit/miss counters are per-Space; two spaces (or two
    concurrently-driven systems) never pollute each other's counts."""

    def test_stats_are_independent_between_spaces(self, geometry):
        a = Space.create(11, (64, 64), 4, geometry)
        b = Space.create(12, (64, 64), 4, geometry)
        translate_region(a, (0, 0), (16, 16))
        translate_region(a, (0, 0), (16, 16))
        translate_region(b, (0, 0), (16, 16))
        stats_a = a.translation_cache_stats()
        stats_b = b.translation_cache_stats()
        assert stats_a["region_hits"] == 1
        assert stats_a["region_misses"] == 1
        assert stats_b["region_hits"] == 0
        assert stats_b["region_misses"] == 1

    def test_reset_is_per_space(self, geometry):
        a = Space.create(13, (64, 64), 4, geometry)
        b = Space.create(14, (64, 64), 4, geometry)
        translate_region(a, (0, 0), (16, 16))
        translate_region(b, (0, 0), (16, 16))
        a.reset_translation_cache_stats()
        assert a.translation_cache_stats()["region_misses"] == 0
        assert b.translation_cache_stats()["region_misses"] == 1

    def test_module_shim_aggregates_without_space(self, geometry):
        from repro.core.translator import translation_cache_stats
        before = translation_cache_stats()
        a = Space.create(15, (64, 64), 4, geometry)
        b = Space.create(16, (64, 64), 4, geometry)
        translate_region(a, (0, 0), (16, 16))
        translate_region(b, (0, 0), (16, 16))
        translate_region(b, (0, 0), (16, 16))
        after = translation_cache_stats()
        assert after["region_misses"] == before["region_misses"] + 2
        assert after["region_hits"] == before["region_hits"] + 1

    def test_two_systems_report_independent_counts(self):
        from repro.nvm import TINY_TEST
        from repro.systems import SoftwareNdsSystem

        first = SoftwareNdsSystem(TINY_TEST)
        second = SoftwareNdsSystem(TINY_TEST)
        first.ingest("d", (64, 64), 4)
        second.ingest("d", (64, 64), 4)
        space_second = second.stl.get_space(second._spaces["d"])
        baseline = dict(space_second.translation_cache_stats())
        for _ in range(3):
            first.read_tile("d", (0, 0), (16, 16))
        # driving the first system leaves the second's counters alone
        assert space_second.translation_cache_stats() == baseline
        second.read_tile("d", (0, 0), (16, 16))
        assert space_second.translation_cache_stats() != baseline
