"""Failure injection: the ECC model surfaces corrupted pages."""

import numpy as np
import pytest

from repro.nvm import FlashArray, PhysicalPageAddress, TINY_TEST, ppa_to_index
from repro.nvm.flash import EccError, FlashStateError


def index(channel: int, bank: int, block: int, page: int) -> int:
    """The page index the array's methods take."""
    return ppa_to_index(PhysicalPageAddress(channel, bank, block, page),
                        TINY_TEST.geometry)


@pytest.fixture
def flash():
    return FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                      store_data=True)


class TestEccDetection:
    def test_clean_page_reads_fine(self, flash, rng):
        ppa = index(0, 0, 0, 0)
        payload = rng.integers(0, 256, 256).astype(np.uint8)
        flash.program_pages([ppa], 0.0, data=[payload])
        assert np.array_equal(flash.page_data(ppa), payload)

    def test_corruption_raises_on_verified_read(self, flash, rng):
        ppa = index(1, 0, 0, 0)
        flash.program_pages([ppa], 0.0,
                            data=[rng.integers(0, 256, 256).astype(np.uint8)])
        flash.corrupt_page(ppa, byte_offset=17)
        with pytest.raises(EccError):
            flash.page_data(ppa)

    def test_unverified_read_returns_raw_bytes(self, flash, rng):
        ppa = index(1, 1, 0, 0)
        flash.program_pages([ppa], 0.0,
                            data=[rng.integers(0, 256, 256).astype(np.uint8)])
        flash.corrupt_page(ppa)
        raw = flash.page_data(ppa, verify=False)
        assert raw.size == 256

    def test_corrupting_empty_page_rejected(self, flash):
        with pytest.raises(FlashStateError):
            flash.corrupt_page(index(0, 0, 0, 7))

    def test_erase_clears_checksum(self, flash, rng):
        ppa = index(0, 0, 2, 0)
        flash.program_pages([ppa], 0.0,
                            data=[rng.integers(0, 256, 256).astype(np.uint8)])
        flash.erase_block(0, 0, 2, 0.0)
        # erased page reads back zeros without tripping ECC
        assert flash.page_data(ppa).sum() == 0

    def test_double_corruption_still_detected(self, flash, rng):
        """Two byte flips at different offsets keep the checksum off."""
        ppa = index(2, 0, 0, 0)
        flash.program_pages([ppa], 0.0,
                            data=[rng.integers(0, 256, 256).astype(np.uint8)])
        flash.corrupt_page(ppa, byte_offset=3)
        flash.corrupt_page(ppa, byte_offset=100)
        with pytest.raises(EccError):
            flash.page_data(ppa)


class TestEccThroughTheStack:
    def test_stl_read_surfaces_corruption(self, rng):
        """End to end: corrupt one unit of a building block; the STL
        read fails loudly instead of returning silent garbage."""
        from repro.core import SpaceTranslationLayer
        from repro.core.api import array_to_bytes
        flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                           store_data=True)
        stl = SpaceTranslationLayer(flash)
        space = stl.create_space((16, 16), 4)
        data = rng.integers(0, 2**31, (16, 16)).astype(np.int32)
        stl.write(space.space_id, (0, 0), (16, 16),
                  data=array_to_bytes(data))
        entry = stl.indexes[space.space_id].lookup(
            next(iter([e.coord for e in
                       stl.indexes[space.space_id].iter_entries()]))).entry
        flash.corrupt_page(entry.allocated_pages()[0])
        with pytest.raises(EccError):
            stl.read(space.space_id, (0, 0), (16, 16))
