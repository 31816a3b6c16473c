"""Tests for the Space Translation Layer."""

import numpy as np
import pytest

from repro.core import (CapacityError, SpaceNotFoundError,
                        SpaceTranslationLayer)
from repro.core.api import array_to_bytes, bytes_to_array
from repro.nvm import FlashArray, Geometry, NvmTiming
from tests.owner_slots import live_units


@pytest.fixture
def stl(tiny_flash):
    return SpaceTranslationLayer(tiny_flash)


def _write_array(stl, space_id, array, coordinate=None, sub_dim=None):
    raw = array_to_bytes(array)
    coordinate = coordinate or tuple(0 for _ in array.shape)
    sub_dim = sub_dim or array.shape
    return stl.write(space_id, coordinate, sub_dim, data=raw)


class TestSpaceManagement:
    def test_create_returns_fresh_ids(self, stl):
        a = stl.create_space((32, 32), 4)
        b = stl.create_space((32, 32), 4)
        assert a.space_id != b.space_id

    def test_get_unknown_space(self, stl):
        with pytest.raises(SpaceNotFoundError):
            stl.get_space(99)

    def test_delete_space_releases_units(self, stl, rng):
        space = stl.create_space((32, 32), 4)
        data = rng.integers(0, 255, (32, 32)).astype(np.int32)
        _write_array(stl, space.space_id, data)
        reverse_before = live_units(stl.allocator.planes)
        released = stl.delete_space(space.space_id)
        # every written unit is invalidated (reclaimed by a later GC)
        # and its owner slot emptied
        assert released == reverse_before
        assert live_units(stl.allocator.planes) == 0
        with pytest.raises(SpaceNotFoundError):
            stl.get_space(space.space_id)


class TestReadWriteRoundtrip:
    def test_full_space(self, stl, rng):
        space = stl.create_space((48, 32), 4)
        data = rng.integers(0, 2**31, (48, 32)).astype(np.int32)
        _write_array(stl, space.space_id, data)
        result = stl.read(space.space_id, (0, 0), (48, 32))
        assert np.array_equal(bytes_to_array(result.data, np.int32), data)

    def test_arbitrary_tile(self, stl, rng):
        space = stl.create_space((64, 64), 4)
        data = rng.integers(0, 2**31, (64, 64)).astype(np.int32)
        _write_array(stl, space.space_id, data)
        result = stl.read_region(space.space_id, (5, 9), (20, 33))
        assert np.array_equal(bytes_to_array(result.data, np.int32),
                              data[5:25, 9:42])

    def test_unwritten_region_reads_zero(self, stl):
        space = stl.create_space((32, 32), 4)
        result = stl.read_region(space.space_id, (0, 0), (8, 8))
        assert result.data.sum() == 0

    def test_partial_write_then_read(self, stl, rng):
        space = stl.create_space((32, 32), 4)
        tile = rng.integers(0, 2**31, (10, 12)).astype(np.int32)
        stl.write_region(space.space_id, (3, 4), (10, 12),
                         data=array_to_bytes(tile))
        result = stl.read_region(space.space_id, (0, 0), (32, 32))
        full = bytes_to_array(result.data, np.int32)
        assert np.array_equal(full[3:13, 4:16], tile)
        assert full[0:3].sum() == 0

    def test_overwrite_read_modify_write(self, stl, rng):
        """Partial overwrites must preserve surrounding block content
        (new-unit programming with merge, §4.2)."""
        space = stl.create_space((32, 32), 4)
        base = rng.integers(0, 2**31, (32, 32)).astype(np.int32)
        _write_array(stl, space.space_id, base)
        patch = rng.integers(0, 2**31, (4, 4)).astype(np.int32)
        stl.write_region(space.space_id, (10, 10), (4, 4),
                         data=array_to_bytes(patch))
        result = stl.read(space.space_id, (0, 0), (32, 32))
        merged = bytes_to_array(result.data, np.int32)
        expected = base.copy()
        expected[10:14, 10:14] = patch
        assert np.array_equal(merged, expected)

    def test_3d_space_roundtrip(self, stl, rng):
        space = stl.create_space((8, 8, 4), 4)
        data = rng.integers(0, 2**31, (8, 8, 4)).astype(np.int32)
        _write_array(stl, space.space_id, data)
        result = stl.read_region(space.space_id, (2, 3, 1), (4, 4, 2))
        assert np.array_equal(bytes_to_array(result.data, np.int32),
                              data[2:6, 3:7, 1:3])

    def test_1d_space_roundtrip(self, stl, rng):
        space = stl.create_space((1024,), 8)
        data = rng.integers(0, 2**62, 1024).astype(np.int64)
        _write_array(stl, space.space_id, data)
        result = stl.read_region(space.space_id, (100,), (300,))
        assert np.array_equal(bytes_to_array(result.data, np.int64),
                              data[100:400])

    def test_wrong_data_shape_rejected(self, stl):
        space = stl.create_space((32, 32), 4)
        with pytest.raises(ValueError):
            stl.write(space.space_id, (0, 0), (8, 8),
                      data=np.zeros((4, 4, 4), dtype=np.uint8))


class TestTiming:
    def test_write_then_read_advance_time(self, stl):
        space = stl.create_space((32, 32), 4)
        write = stl.write(space.space_id, (0, 0), (32, 32))
        assert write.end_time > write.start_time
        read = stl.read(space.space_id, (0, 0), (32, 32),
                        start_time=write.end_time, with_data=False)
        assert read.end_time > read.start_time

    def test_block_results_carry_structure(self, stl):
        space = stl.create_space((32, 32), 4)
        stl.write(space.space_id, (0, 0), (32, 32))
        read = stl.read(space.space_id, (0, 0), (32, 32), with_data=False)
        assert read.pages_touched > 0
        assert read.nodes_visited >= len(read.blocks) * space.rank

    def test_partial_read_touches_fewer_pages(self, stl):
        space = stl.create_space((32, 32), 4)
        stl.write(space.space_id, (0, 0), (32, 32))
        full = stl.read(space.space_id, (0, 0), (32, 32), with_data=False)
        part = stl.read_region(space.space_id, (0, 0), (4, 32),
                               with_data=False)
        assert part.pages_touched < full.pages_touched


class TestGcUnderPressure:
    def test_overwrite_churn_triggers_nds_gc(self):
        geometry = Geometry(channels=2, banks_per_channel=1,
                            blocks_per_bank=4, pages_per_block=4,
                            page_size=64)
        timing = NvmTiming(t_read=1e-6, t_program=5e-6, t_erase=20e-6,
                           channel_bandwidth=100e6)
        flash = FlashArray(geometry, timing, store_data=True)
        stl = SpaceTranslationLayer(flash, gc_threshold=0.30)
        space = stl.create_space((8, 8), 2)   # one block of 128 B
        data = np.arange(64, dtype=np.int16).reshape(8, 8)
        for round_id in range(20):
            stl.write(space.space_id, (0, 0), (8, 8),
                      data=array_to_bytes(data + round_id),
                      start_time=float(round_id))
        assert stl.gc.total_erased > 0
        result = stl.read(space.space_id, (0, 0), (8, 8))
        assert np.array_equal(bytes_to_array(result.data, np.int16),
                              data + 19)

    def test_capacity_exhaustion_raises(self):
        geometry = Geometry(channels=1, banks_per_channel=1,
                            blocks_per_bank=2, pages_per_block=2,
                            page_size=64)
        timing = NvmTiming(t_read=1e-6, t_program=5e-6, t_erase=20e-6,
                           channel_bandwidth=100e6)
        flash = FlashArray(geometry, timing, store_data=False)
        stl = SpaceTranslationLayer(flash, gc_threshold=0.10)
        space = stl.create_space((64, 64), 4)  # far larger than 256 B
        with pytest.raises(CapacityError):
            stl.write(space.space_id, (0, 0), (64, 64))
