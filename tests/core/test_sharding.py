"""Per-tenant space sharding: the STL pins a space's allocation — and
everything downstream of it (overwrites, GC relocation, parity units,
degraded-read re-placement) — to a disjoint (channel, bank) subset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ShardSpec, SpaceTranslationLayer
from repro.core.api import array_to_bytes
from repro.nvm import index_to_ppa


def _live_planes(stl, space_id):
    """Every (channel, bank) holding a live unit of the space."""
    planes = set()
    for entry in stl.indexes[space_id].iter_entries():
        for ppa in entry.allocated_pages():
            ppa = index_to_ppa(ppa, stl.geometry)
            planes.add((ppa.channel, ppa.bank))
    return planes


def _write(stl, space_id, array, coordinate=None):
    coordinate = coordinate or tuple(0 for _ in array.shape)
    return stl.write(space_id, coordinate, array.shape,
                     data=array_to_bytes(array))


# ----------------------------------------------------------------------
# ShardSpec
# ----------------------------------------------------------------------
class TestShardSpec:
    def test_channels_sorted(self):
        shard = ShardSpec(channels=(3, 1, 0))
        assert shard.channels == (0, 1, 3)

    def test_duplicate_channels_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate entries \(3,\)"):
            ShardSpec(channels=(3, 1, 3))

    def test_duplicate_banks_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ShardSpec(channels=(0,), banks=(1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ShardSpec(channels=())

    def test_validate_against_geometry(self, tiny_profile):
        geometry = tiny_profile.geometry
        ShardSpec(channels=(0, 3)).validate(geometry)
        with pytest.raises(ValueError):
            ShardSpec(channels=(0, 99)).validate(geometry)
        with pytest.raises(ValueError):
            ShardSpec(channels=(0,), banks=(5,)).validate(geometry)

    def test_planes_cross_product(self, tiny_profile):
        geometry = tiny_profile.geometry
        assert ShardSpec(channels=(1,)).planes(geometry) == \
            frozenset({(1, 0), (1, 1)})
        assert ShardSpec(channels=(0, 2), banks=(1,)).planes(geometry) == \
            frozenset({(0, 1), (2, 1)})

    def test_overlap(self, tiny_profile):
        geometry = tiny_profile.geometry
        a = ShardSpec(channels=(0, 1))
        b = ShardSpec(channels=(2, 3))
        assert not a.overlaps(b, geometry)
        assert a.overlaps(ShardSpec(channels=(1, 2)), geometry)

    def test_normalize(self):
        assert ShardSpec.normalize(None) is None
        assert ShardSpec.normalize((2, 0)).channels == (0, 2)
        spec = ShardSpec(channels=(1,))
        assert ShardSpec.normalize(spec) is spec


# ----------------------------------------------------------------------
# STL enforcement
# ----------------------------------------------------------------------
class TestShardedAllocation:
    def test_writes_never_leave_the_shard(self, tiny_stl, rng):
        shard = ShardSpec(channels=(1, 3))
        space = tiny_stl.create_space((64, 64), 1, shard=shard)
        data = rng.integers(0, 255, (64, 64)).astype(np.uint8)
        _write(tiny_stl, space.space_id, data)
        planes = _live_planes(tiny_stl, space.space_id)
        assert planes
        assert {c for c, _ in planes} <= {1, 3}
        assert tiny_stl.shard_of(space.space_id) is shard
        # planes outside the shard were never touched
        for (channel, bank), plane in tiny_stl.allocator.planes.items():
            if channel not in (1, 3):
                assert plane.free_page_count() == \
                    tiny_stl.geometry.pages_per_bank

    def test_gc_churn_stays_in_the_shard(self, tiny_stl, rng):
        """Rewrites past the shard's raw capacity force GC erase/
        relocation cycles; live data still never leaves the shard."""
        shard = ShardSpec(channels=(2,))
        space = tiny_stl.create_space((64, 64), 1, shard=shard)
        for round_ in range(12):
            data = rng.integers(0, 255, (64, 64)).astype(np.uint8)
            _write(tiny_stl, space.space_id, data)
        assert tiny_stl.gc.total_erased > 0, "churn never triggered GC"
        planes = _live_planes(tiny_stl, space.space_id)
        assert planes and {c for c, _ in planes} == {2}
        for (channel, bank), plane in tiny_stl.allocator.planes.items():
            if channel != 2:
                assert plane.free_page_count() == \
                    tiny_stl.geometry.pages_per_bank

    def test_parity_units_stay_in_the_shard(self, tiny_profile, rng):
        from repro.nvm.flash import FlashArray
        flash = FlashArray(tiny_profile.geometry, tiny_profile.timing,
                           store_data=True)
        stl = SpaceTranslationLayer(flash, parity=True)
        shard = ShardSpec(channels=(0, 1))
        space = stl.create_space((64, 64), 1, shard=shard)
        data = rng.integers(0, 255, (64, 64)).astype(np.uint8)
        _write(stl, space.space_id, data)
        parity_ppas = [index_to_ppa(ppa, stl.geometry)
                       for _, ppa in stl.parity.iter_space(space.space_id)]
        assert parity_ppas
        assert {ppa.channel for ppa in parity_ppas} <= {0, 1}

    def test_two_disjoint_shards_have_disjoint_footprints(self, tiny_stl,
                                                          rng):
        a = tiny_stl.create_space((64, 64), 1,
                                  shard=ShardSpec(channels=(0, 1)))
        b = tiny_stl.create_space((64, 64), 1,
                                  shard=ShardSpec(channels=(2, 3)))
        for space in (a, b):
            data = rng.integers(0, 255, (64, 64)).astype(np.uint8)
            _write(tiny_stl, space.space_id, data)
        planes_a = _live_planes(tiny_stl, a.space_id)
        planes_b = _live_planes(tiny_stl, b.space_id)
        assert planes_a and planes_b
        assert not planes_a & planes_b

    def test_oversized_space_rejected(self, tiny_stl):
        # one channel x 2 banks x 64 pages x 256 B = 32 KiB shard
        with pytest.raises(ValueError,
                           match=r"shard's footprint of 1 channels x 2 banks"):
            tiny_stl.create_space((256, 256), 1,
                                  shard=ShardSpec(channels=(0,)))

    def test_unsharded_spaces_unaffected(self, tiny_profile, rng):
        """Creating sharded co-tenants must not perturb an unsharded
        space's placement (the legacy RNG draw sequence)."""
        from repro.nvm.flash import FlashArray

        def run(with_cotenant):
            flash = FlashArray(tiny_profile.geometry, tiny_profile.timing,
                               store_data=True)
            stl = SpaceTranslationLayer(flash)
            space = stl.create_space((32, 32), 1)
            if with_cotenant:
                stl.create_space((32, 32), 1,
                                 shard=ShardSpec(channels=(3,)))
            data = np.arange(32 * 32, dtype=np.uint8).reshape(32, 32)
            _write(stl, space.space_id, data)
            return sorted(
                tuple(index_to_ppa(ppa, stl.geometry))
                for entry in stl.indexes[space.space_id].iter_entries()
                for ppa in entry.allocated_pages())

        assert run(False) == run(True)

    def test_delete_space_forgets_the_shard(self, tiny_stl):
        space = tiny_stl.create_space((32, 32), 1,
                                      shard=ShardSpec(channels=(0,)))
        assert tiny_stl.shard_of(space.space_id) is not None
        tiny_stl.delete_space(space.space_id)
        assert tiny_stl.shard_of(space.space_id) is None
