"""Tests for the STL's per-space B-tree index (§4.2, Fig. 6)."""

import pytest

from repro.core import BTreeIndex, Space
from repro.nvm import Geometry, PhysicalPageAddress, ppa_to_index


@pytest.fixture
def geometry():
    return Geometry(channels=4, banks_per_channel=2, page_size=256)


def _unit(geometry, *fields) -> int:
    """The page index of the address ``fields``."""
    return ppa_to_index(PhysicalPageAddress(*fields), geometry)


@pytest.fixture
def space3d(geometry):
    """The Fig. 6 shape: a 3-level tree for a 3-D space."""
    return Space.create(1, (64, 64, 4), 4, geometry)


@pytest.fixture
def index(space3d):
    return BTreeIndex(space3d)


class TestStructure:
    def test_tree_has_one_level_per_dimension(self, index, space3d):
        result = index.ensure((0, 0, 0))
        assert result.nodes_visited == space3d.rank

    def test_lookup_missing_is_none(self, index):
        result = index.lookup((1, 1, 1))
        assert result.entry is None
        assert result.nodes_visited >= 1

    def test_ensure_allocates_path(self, index):
        before = index.node_count
        result = index.ensure((3, 2, 1))
        assert result.entry is not None
        assert result.nodes_created == 2  # levels below the root
        assert index.node_count == before + 2

    def test_ensure_is_idempotent(self, index):
        first = index.ensure((1, 1, 0)).entry
        again = index.ensure((1, 1, 0))
        assert again.entry is first
        assert again.nodes_created == 0

    def test_shared_prefix_shares_nodes(self, index):
        index.ensure((0, 0, 0))
        created = index.ensure((0, 0, 1)).nodes_created
        assert created == 0  # same 2-D path, new leaf entry only

    def test_entry_has_page_slots(self, index, space3d):
        entry = index.ensure((0, 0, 0)).entry
        assert len(entry.pages) == space3d.pages_per_block
        assert entry.is_empty

    def test_out_of_grid_coordinate(self, index):
        with pytest.raises(ValueError):
            index.lookup((99, 0, 0))
        with pytest.raises(ValueError):
            index.ensure((0, 0, 99))

    def test_rank_mismatch(self, index):
        with pytest.raises(ValueError):
            index.lookup((0, 0))


class TestEntryBookkeeping:
    """The usage record on the fixture's 4 channels x 2 banks, for a
    block of 4 pages (so M = 5): ``key_grid[b][c]`` packs the units on
    (c, b) times M plus the units on channel c."""

    def test_record_alloc_updates_usage(self, index, geometry):
        entry = index.ensure((0, 0, 0)).entry
        assert len(entry.pages) == 4 and entry.usage is None
        entry.count_usage(geometry)
        ppa = _unit(geometry, 2, 1, 0, 0)
        entry.record_alloc(ppa, 0)
        assert entry.pages[0] == ppa
        assert entry.usage == ([[0, 0, 1, 0], [0, 0, 5 + 1, 0]],
                               [0, 1], [0, 1])
        assert entry.last_alloc == ppa
        entry.record_alloc(_unit(geometry, 2, 0, 0, 0), 1)
        assert entry.usage == ([[0, 0, 5 + 2, 0], [0, 0, 5 + 2, 0]],
                               [1, 1], [1, 1])

    def test_record_release(self, index, geometry):
        entry = index.ensure((0, 0, 0)).entry
        entry.count_usage(geometry)
        ppa = _unit(geometry, 2, 1, 0, 0)
        entry.record_alloc(ppa, 0)
        released = entry.record_release(0)
        assert released == ppa
        assert entry.usage == ([[0] * 4, [0] * 4], [0, 0], [0, 0])
        assert entry.is_empty

    def test_count_usage_counts_the_bound_pages(self, index, geometry):
        entry = index.ensure((0, 0, 0)).entry
        entry.pages[0] = _unit(geometry, 1, 0, 0, 0)
        entry.pages[3] = _unit(geometry, 1, 0, 0, 1)
        entry.count_usage(geometry)
        assert entry.usage == ([[0, 2 * 5 + 2, 0, 0], [0, 2, 0, 0]],
                               [2, 0], [1, 0])

    def test_extend_pages_recounts_with_the_new_packing(self, index, geometry):
        entry = index.ensure((0, 0, 0)).entry
        entry.count_usage(geometry)
        entry.record_alloc(_unit(geometry, 3, 1, 0, 0), 0)
        entry.extend_pages(5)
        assert len(entry.pages) == 5
        assert entry.usage == ([[0, 0, 0, 1], [0, 0, 0, 6 + 1]],
                               [0, 1], [0, 1])

    def test_release_empty_slot(self, index):
        entry = index.ensure((0, 0, 0)).entry
        assert entry.record_release(0) is None


class TestIterationAndMemory:
    def test_iter_entries(self, index):
        coords = [(0, 0, 0), (1, 2, 3), (3, 3, 0)]
        for coord in coords:
            index.ensure(coord)
        found = {entry.coord for entry in index.iter_entries()}
        assert found == set(coords)

    def test_remove(self, index):
        index.ensure((1, 1, 1))
        assert index.remove((1, 1, 1)) is not None
        assert index.lookup((1, 1, 1)).entry is None
        assert index.remove((1, 1, 1)) is None

    def test_memory_grows_with_entries(self, index):
        empty = index.memory_bytes()
        for i in range(4):
            index.ensure((i, 0, 0))
        assert index.memory_bytes() > empty

    def test_space_overhead_is_small(self):
        """§7.3: with real 4 KB pages the full lookup structure stays
        in the 0.1 %-of-capacity band."""
        from repro.nvm import PAPER_PROTOTYPE
        space = Space.create(1, (4096, 4096), 4, PAPER_PROTOTYPE.geometry)
        index = BTreeIndex(space)
        geometry = PAPER_PROTOTYPE.geometry
        for i in range(space.grid[0]):
            for j in range(space.grid[1]):
                entry = index.ensure((i, j)).entry
                entry.count_usage(geometry)
                for position in range(space.pages_per_block):
                    entry.record_alloc(_unit(geometry, 0, 0, 0, 0),
                                       position)
        overhead = index.memory_bytes() / space.total_bytes
        assert overhead < 0.005
