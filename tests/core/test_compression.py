"""Tests for §5.3.4 building-block-granular compression."""

import numpy as np
import pytest

from repro.core import SpaceTranslationLayer, ZlibCompressor
from repro.core.api import array_to_bytes, bytes_to_array
from repro.core.compression import HEADER_BYTES
from repro.faults import FaultConfig, FaultInjector
from repro.nvm import FlashArray, TINY_TEST


@pytest.fixture
def compressed_stl():
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                       store_data=True)
    return SpaceTranslationLayer(flash, compressor=ZlibCompressor())


class TestCodec:
    def test_roundtrip(self, rng):
        codec = ZlibCompressor()
        raw = rng.integers(0, 4, 4096).astype(np.uint8)  # compressible
        stored = codec.compress_block(raw)
        assert stored.size < raw.size
        back = codec.decompress_block(stored, raw.size)
        assert np.array_equal(back, raw)

    def test_incompressible_passthrough(self, rng):
        codec = ZlibCompressor()
        raw = rng.integers(0, 256, 4096).astype(np.uint8)
        stored = codec.compress_block(raw)
        assert stored.size <= raw.size + HEADER_BYTES
        assert np.array_equal(codec.decompress_block(stored, raw.size), raw)

    def test_padded_read_back(self, rng):
        """Stored payload may carry page padding beyond the payload."""
        codec = ZlibCompressor()
        raw = np.zeros(1024, dtype=np.uint8)
        stored = codec.compress_block(raw)
        padded = np.concatenate(
            [stored, np.zeros(256 - stored.size % 256, np.uint8)])
        assert np.array_equal(codec.decompress_block(padded, raw.size), raw)

    def test_bad_magic_rejected(self):
        codec = ZlibCompressor()
        with pytest.raises(ValueError):
            codec.decompress_block(np.zeros(64, dtype=np.uint8), 16)

    def test_stats(self, rng):
        codec = ZlibCompressor()
        codec.compress_block(np.zeros(4096, dtype=np.uint8))
        assert codec.stats.blocks_compressed == 1
        assert codec.stats.ratio < 0.1

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            ZlibCompressor(level=10)


class TestStlIntegration:
    def test_compressed_roundtrip(self, compressed_stl, rng):
        stl = compressed_stl
        space = stl.create_space((32, 32), 4)
        data = (rng.integers(0, 4, (32, 32)) * 100).astype(np.int32)
        stl.write(space.space_id, (0, 0), (32, 32),
                  data=array_to_bytes(data))
        result = stl.read(space.space_id, (0, 0), (32, 32))
        assert np.array_equal(bytes_to_array(result.data, np.int32), data)

    def test_compressible_data_uses_fewer_units(self, rng):
        def units_used(compressor):
            flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                               store_data=True)
            stl = SpaceTranslationLayer(flash, compressor=compressor)
            space = stl.create_space((32, 32), 4)
            data = np.zeros((32, 32), dtype=np.int32)  # highly compressible
            result = stl.write(space.space_id, (0, 0), (32, 32),
                               data=array_to_bytes(data))
            return sum(block.units_allocated for block in result.blocks)

        assert units_used(ZlibCompressor()) < units_used(None)

    def test_partial_overwrite_preserves_rest(self, compressed_stl, rng):
        stl = compressed_stl
        space = stl.create_space((32, 32), 4)
        base = rng.integers(0, 4, (32, 32)).astype(np.int32)
        stl.write(space.space_id, (0, 0), (32, 32),
                  data=array_to_bytes(base))
        patch = rng.integers(10, 14, (5, 7)).astype(np.int32)
        stl.write_region(space.space_id, (3, 4), (5, 7),
                         data=array_to_bytes(patch))
        result = stl.read(space.space_id, (0, 0), (32, 32))
        merged = bytes_to_array(result.data, np.int32)
        expected = base.copy()
        expected[3:8, 4:11] = patch
        assert np.array_equal(merged, expected)

    def test_partial_read_of_compressed_block(self, compressed_stl, rng):
        stl = compressed_stl
        space = stl.create_space((32, 32), 4)
        data = rng.integers(0, 4, (32, 32)).astype(np.int32)
        stl.write(space.space_id, (0, 0), (32, 32),
                  data=array_to_bytes(data))
        result = stl.read_region(space.space_id, (5, 9), (11, 13))
        assert np.array_equal(bytes_to_array(result.data, np.int32),
                              data[5:16, 9:22])

    def test_timing_only_mode_rejected(self):
        flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                           store_data=False)
        with pytest.raises(ValueError):
            SpaceTranslationLayer(flash, compressor=ZlibCompressor())

    def test_incompressible_never_exceeds_raw_much(self, rng):
        flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                           store_data=True)
        stl = SpaceTranslationLayer(flash, compressor=ZlibCompressor())
        space = stl.create_space((16, 16), 4)
        data = rng.integers(0, 2**31, (16, 16)).astype(np.int32)
        result = stl.write(space.space_id, (0, 0), (16, 16),
                           data=array_to_bytes(data))
        units = sum(block.units_allocated for block in result.blocks)
        raw_pages = space.total_blocks * space.pages_per_block
        assert units <= raw_pages + space.total_blocks  # +1 header page max
        back = stl.read(space.space_id, (0, 0), (16, 16))
        assert np.array_equal(bytes_to_array(back.data, np.int32), data)

    def test_grown_bad_block_re_places_the_unit(self):
        """A program status-fail on a compressed write retires the block
        and re-places the unit, as an uncompressed write does: the old
        units are already released, so losing the program loses data."""
        flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                           store_data=True)
        flash.attach_faults(FaultInjector(FaultConfig(program_fail_base=0.05)))
        stl = SpaceTranslationLayer(flash, compressor=ZlibCompressor())
        space = stl.create_space((64, 64), 4)
        rng = np.random.default_rng(0)
        expected = np.zeros((64, 64, 4), dtype=np.uint8)
        now = 0.0
        for _ in range(24):
            origin = tuple(int(x) for x in rng.integers(0, 4, 2) * 16)
            data = rng.integers(0, 4, (16, 16, 4), dtype=np.uint8)
            now = stl.write_region(space.space_id, origin, (16, 16),
                                   data=data, start_time=now).end_time
            expected[origin[0]:origin[0] + 16,
                     origin[1]:origin[1] + 16] = data
        back = stl.read_region(space.space_id, (0, 0), (64, 64),
                               start_time=now)
        assert np.array_equal(back.data, expected)
        assert flash.faults.counters()["grown_bad_blocks"] >= 1

    def test_growing_a_page_slot_keeps_the_placement_grid_exact(self, rng):
        """An incompressible rewrite of a block first stored compressed
        grows the leaf by a header page. The placement grid packs its
        keys with ``len(pages) + 1``, so it must still equal a rebuild
        from the usage dicts afterwards."""
        flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                           store_data=True)
        stl = SpaceTranslationLayer(flash, compressor=ZlibCompressor())
        space = stl.create_space((32, 32), 4)
        stl.write_region(space.space_id, (0, 0), (32, 32),
                         data=rng.integers(0, 2, (32, 32, 4), dtype=np.uint8))
        entry = next(stl.indexes[space.space_id].iter_entries())
        pages = len(entry.pages)
        stl.write_region(space.space_id, (0, 0), (32, 32),
                         data=rng.integers(0, 256, (32, 32, 4),
                                           dtype=np.uint8))
        assert len(entry.pages) == pages + 1
        cols = stl.allocator._place_cols(entry)
        entry.place_cols = None
        assert stl.allocator._place_cols(entry) == cols
