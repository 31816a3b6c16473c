"""Tests for NDS garbage collection and the reverse lookup table."""

import numpy as np
import pytest

from repro.core import NdsGarbageCollector, SpaceTranslationLayer
from repro.core.api import array_to_bytes, bytes_to_array
from repro.core.gc import OOB_BYTES_PER_UNIT
from repro.nvm import FlashArray, Geometry, NvmTiming
from tests.owner_slots import live_slots


@pytest.fixture
def pressured_stl():
    geometry = Geometry(channels=2, banks_per_channel=2, blocks_per_bank=4,
                        pages_per_block=4, page_size=64)
    timing = NvmTiming(t_read=1e-6, t_program=5e-6, t_erase=20e-6,
                       channel_bandwidth=100e6)
    flash = FlashArray(geometry, timing, store_data=True)
    return SpaceTranslationLayer(flash, gc_threshold=0.30)


class TestReverseTable:
    def test_alloc_populates_reverse(self, pressured_stl):
        stl = pressured_stl
        space = stl.create_space((8, 8), 2)
        stl.write(space.space_id, (0, 0), (8, 8))
        owners = [owner for _idx, owner
                  in live_slots(stl.allocator.planes)]
        assert len(owners) > 0
        entries = list(stl.indexes[space.space_id].iter_entries())
        for owner in owners:
            assert any(owner is entry for entry in entries)

    def test_oob_accounting(self, pressured_stl):
        stl = pressured_stl
        space = stl.create_space((8, 8), 2)
        stl.write(space.space_id, (0, 0), (8, 8))
        assert (stl.gc.reverse_table_bytes()
                == len(list(live_slots(stl.allocator.planes)))
                * OOB_BYTES_PER_UNIT)


class TestCollection:
    def test_btree_patched_after_relocation(self, pressured_stl):
        stl = pressured_stl
        space = stl.create_space((8, 8), 2)
        data = np.arange(64, dtype=np.int16).reshape(8, 8)
        for round_id in range(24):
            stl.write(space.space_id, (0, 0), (8, 8),
                      data=array_to_bytes(data * 0 + round_id),
                      start_time=float(round_id))
        assert stl.gc.total_erased > 0
        # the index must point at live, programmed units
        index = stl.indexes[space.space_id]
        for entry in index.iter_entries():
            for ppa in entry.allocated_pages():
                assert stl.flash.is_programmed(ppa)
        result = stl.read(space.space_id, (0, 0), (8, 8))
        assert bytes_to_array(result.data, np.int16)[0, 0] == 23

    def test_gc_timing_charged(self, pressured_stl):
        stl = pressured_stl
        space = stl.create_space((8, 8), 2)
        saw_gc_time = False
        for round_id in range(24):
            result = stl.write(space.space_id, (0, 0), (8, 8),
                               start_time=float(round_id))
            if any(block.gc_time > 0 for block in result.blocks):
                saw_gc_time = True
        assert saw_gc_time

    def test_threshold_bounds(self, pressured_stl):
        with pytest.raises(ValueError):
            NdsGarbageCollector(pressured_stl.allocator,
                                pressured_stl.flash,
                                threshold=1.5)
