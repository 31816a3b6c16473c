"""Tests for the §4.2 allocation rules."""

import pytest

from repro.core import CapacityError, NdsAllocator
from repro.core.btree import BlockEntry
from repro.nvm import Geometry, index_to_ppa, ppa_to_index


@pytest.fixture
def geometry():
    return Geometry(channels=4, banks_per_channel=2, blocks_per_bank=4,
                    pages_per_block=8, page_size=256)


@pytest.fixture
def allocator(geometry):
    return NdsAllocator(geometry, seed=7)


def _entry(pages=32):
    return BlockEntry(coord=(0, 0), pages=[None] * pages)


def _allocate(allocator, entry, position, **kwargs):
    """``allocator.allocate``'s page index, decoded to its address."""
    return index_to_ppa(allocator.allocate(entry, position, **kwargs),
                        allocator.geometry)


class TestPlacementRules:
    def test_first_unit_lands_somewhere_valid(self, allocator, geometry):
        entry = _entry()
        ppa = _allocate(allocator, entry, 0)
        assert 0 <= ppa.channel < geometry.channels
        assert 0 <= ppa.bank < geometry.banks_per_channel

    def test_block_spreads_over_all_channels_first(self, allocator, geometry):
        """Rule 2: successive units go to least-used channels of the
        same bank until every channel holds one."""
        entry = _entry()
        ppas = [_allocate(allocator, entry, i)
                for i in range(geometry.channels)]
        assert len({p.channel for p in ppas}) == geometry.channels
        assert len({p.bank for p in ppas}) == 1

    def test_bank_advances_after_channels_exhausted(self, allocator, geometry):
        """Rule 3: once a bank holds a unit in every channel, the next
        unit moves to another bank."""
        entry = _entry()
        ppas = [_allocate(allocator, entry, i)
                for i in range(2 * geometry.channels)]
        banks = {p.bank for p in ppas}
        assert len(banks) == 2
        # each (channel, bank) pair used exactly once
        pairs = {(p.channel, p.bank) for p in ppas}
        assert len(pairs) == 2 * geometry.channels

    def test_full_block_wraps_to_least_used(self, allocator, geometry):
        """Rule 4: with every (channel, bank) used, allocation continues
        on least-used banks."""
        entry = _entry(pages=3 * geometry.channels * geometry.banks_per_channel)
        total = geometry.channels * geometry.banks_per_channel
        ppas = [_allocate(allocator, entry, i) for i in range(2 * total)]
        pairs = [(p.channel, p.bank) for p in ppas]
        # every pair used exactly twice — perfectly even
        from collections import Counter
        assert set(Counter(pairs).values()) == {2}

    def test_overwrite_prefers_same_channel_bank(self, allocator, geometry):
        entry = _entry()
        first = _allocate(allocator, entry, 0)
        entry.record_release(0)
        allocator.invalidate(ppa_to_index(first, geometry))
        replacement = _allocate(allocator, entry, 0,
                                prefer=(first.channel, first.bank))
        assert (replacement.channel, replacement.bank) == (first.channel,
                                                           first.bank)
        assert replacement != first


class TestCapacity:
    def test_fallback_spills_to_other_planes(self, geometry):
        allocator = NdsAllocator(geometry, seed=7)
        pages_per_plane = geometry.pages_per_bank
        entry = _entry(pages=pages_per_plane + 1)
        # exhaust one plane by pinning allocations to it
        for i in range(pages_per_plane):
            allocator.allocate(entry, i, prefer=(0, 0))
        ppa = _allocate(allocator, entry, pages_per_plane, prefer=(0, 0))
        assert (ppa.channel, ppa.bank) != (0, 0)

    def test_capacity_error_when_everything_full(self, geometry):
        allocator = NdsAllocator(geometry, seed=7)
        total = geometry.total_pages
        entry = _entry(pages=total + 1)
        for i in range(total):
            allocator.allocate(entry, i)
        with pytest.raises(CapacityError):
            allocator.allocate(entry, total)

    def test_free_accounting(self, allocator, geometry):
        entry = _entry()
        start = allocator.total_free_pages()
        allocator.allocate(entry, 0)
        assert allocator.total_free_pages() == start - 1
        assert 0.0 < allocator.free_fraction(0, 0) <= 1.0


class TestDeterminism:
    def test_same_seed_same_layout(self, geometry):
        a = NdsAllocator(geometry, seed=11)
        b = NdsAllocator(geometry, seed=11)
        ea, eb = _entry(), _entry()
        for i in range(16):
            assert a.allocate(ea, i) == b.allocate(eb, i)
