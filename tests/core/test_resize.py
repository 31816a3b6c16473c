"""Tests for §5.1 space expand/shrink."""

import numpy as np
import pytest

from repro.core import SpaceNotFoundError
from repro.core.api import array_to_bytes, bytes_to_array
from tests.owner_slots import live_units


class TestGrow:
    def test_data_survives_growth(self, tiny_stl, rng):
        stl = tiny_stl
        space = stl.create_space((32, 32), 4)
        data = rng.integers(0, 2**31, (32, 32)).astype(np.int32)
        stl.write(space.space_id, (0, 0), (32, 32),
                  data=array_to_bytes(data))
        resized = stl.resize_space(space.space_id, (64, 48))
        assert resized.dims == (64, 48)
        assert resized.bb == space.bb  # blocks are immutable
        old = stl.read_region(space.space_id, (0, 0), (32, 32))
        assert np.array_equal(bytes_to_array(old.data, np.int32), data)

    def test_new_region_is_writable(self, tiny_stl, rng):
        stl = tiny_stl
        space = stl.create_space((32, 32), 4)
        stl.resize_space(space.space_id, (64, 32))
        patch = rng.integers(0, 2**31, (16, 16)).astype(np.int32)
        stl.write_region(space.space_id, (40, 8), (16, 16),
                         data=array_to_bytes(patch))
        result = stl.read_region(space.space_id, (40, 8), (16, 16))
        assert np.array_equal(bytes_to_array(result.data, np.int32), patch)

    def test_grown_bounds_enforced(self, tiny_stl):
        stl = tiny_stl
        space = stl.create_space((32, 32), 4)
        stl.resize_space(space.space_id, (64, 32))
        with pytest.raises(ValueError):
            stl.read_region(space.space_id, (0, 0), (65, 32))


class TestShrink:
    def test_out_of_range_blocks_released(self, tiny_stl, rng):
        stl = tiny_stl
        space = stl.create_space((64, 64), 4)
        data = rng.integers(0, 2**31, (64, 64)).astype(np.int32)
        stl.write(space.space_id, (0, 0), (64, 64),
                  data=array_to_bytes(data))
        reverse_before = live_units(stl.allocator.planes)
        stl.resize_space(space.space_id, (32, 32))
        assert live_units(stl.allocator.planes) < reverse_before
        assert stl.stats.get_count("resize_units_released") > 0
        kept = stl.read_region(space.space_id, (0, 0), (32, 32))
        assert np.array_equal(bytes_to_array(kept.data, np.int32),
                              data[:32, :32])

    def test_shrunk_bounds_enforced(self, tiny_stl):
        stl = tiny_stl
        space = stl.create_space((64, 64), 4)
        stl.resize_space(space.space_id, (32, 32))
        with pytest.raises(ValueError):
            stl.read_region(space.space_id, (0, 0), (64, 64))

    def test_shrink_then_regrow_reads_zeros_outside(self, tiny_stl, rng):
        stl = tiny_stl
        space = stl.create_space((64, 32), 4)
        data = rng.integers(1, 2**31, (64, 32)).astype(np.int32)
        stl.write(space.space_id, (0, 0), (64, 32),
                  data=array_to_bytes(data))
        stl.resize_space(space.space_id, (32, 32))
        stl.resize_space(space.space_id, (64, 32))
        result = stl.read_region(space.space_id, (48, 0), (16, 32))
        # fully-released blocks read back as zeros after regrowth
        tail = bytes_to_array(result.data, np.int32)
        assert tail.sum() == 0


class TestValidation:
    def test_rank_change_rejected(self, tiny_stl):
        stl = tiny_stl
        space = stl.create_space((32, 32), 4)
        with pytest.raises(ValueError):
            stl.resize_space(space.space_id, (32, 32, 2))

    def test_unknown_space(self, tiny_stl):
        with pytest.raises(SpaceNotFoundError):
            tiny_stl.resize_space(99, (8, 8))


class TestApiPassthrough:
    def test_api_resize(self, tiny_stl, rng):
        from repro.core import NdsApi
        import numpy as np
        api = NdsApi(tiny_stl)
        sid = api.create_space((32, 32), 4)
        handle = api.open_space(sid)
        data = rng.integers(0, 99, (32, 32)).astype(np.int32)
        api.write(handle, (0, 0), (32, 32), data)
        assert api.resize_space(sid, (64, 32)) == sid
        assert api.space(sid).dims == (64, 32)
