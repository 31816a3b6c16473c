"""Property-based tests on allocation invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import NdsAllocator
from repro.core.btree import BlockEntry
from repro.nvm import Geometry, index_to_ppa


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_physical_unit_is_ever_double_allocated(data):
    """Across any interleaving of allocations for multiple blocks,
    every granted physical page is globally unique."""
    geometry = Geometry(channels=data.draw(st.integers(1, 4)),
                        banks_per_channel=data.draw(st.integers(1, 3)),
                        blocks_per_bank=4, pages_per_block=4,
                        page_size=64)
    allocator = NdsAllocator(geometry, seed=data.draw(st.integers(0, 99)))
    entries = [BlockEntry(coord=(i,), pages=[None] * 64) for i in range(3)]
    total = geometry.total_pages
    count = data.draw(st.integers(1, min(48, total)))
    granted = set()
    for i in range(count):
        entry = entries[data.draw(st.integers(0, 2))]
        position = sum(1 for p in entry.pages if p is not None)
        key = allocator.allocate(entry, position)
        assert key not in granted
        granted.add(key)
    assert allocator.total_free_pages() == total - count


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), units=st.integers(1, 32))
def test_block_channel_spread_is_maximal(seed, units):
    """A block's first min(units, channels) units land on distinct
    channels — the Eq. 1 guarantee that drives full-bandwidth fetches."""
    geometry = Geometry(channels=8, banks_per_channel=4,
                        blocks_per_bank=8, pages_per_block=8, page_size=64)
    allocator = NdsAllocator(geometry, seed=seed)
    entry = BlockEntry(coord=(0,), pages=[None] * 64)
    ppas = [allocator.allocate(entry, i) for i in range(units)]
    channels = {index_to_ppa(p, geometry).channel for p in ppas}
    assert len(channels) == min(units, geometry.channels)
