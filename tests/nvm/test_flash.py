"""Tests for the flash array: timing schedules, NAND semantics, data."""

import numpy as np
import pytest

from repro.nvm import (FlashArray, FlashStateError, Geometry, NvmTiming,
                       PhysicalPageAddress, ppa_to_index)

GEOMETRY = Geometry(channels=4, banks_per_channel=2, blocks_per_bank=4,
                    pages_per_block=8, page_size=1000)


def index(channel: int, bank: int, block: int, page: int) -> int:
    """The page index the array's methods take."""
    return ppa_to_index(PhysicalPageAddress(channel, bank, block, page),
                        GEOMETRY)


@pytest.fixture
def timing():
    return NvmTiming(t_read=10e-6, t_program=100e-6, t_erase=500e-6,
                     channel_bandwidth=100e6, t_cmd=0.0)


@pytest.fixture
def geometry():
    return GEOMETRY


@pytest.fixture
def flash(geometry, timing):
    return FlashArray(geometry, timing, store_data=True)


XFER = 1000 / 100e6  # 10 us page transfer


class TestReadScheduling:
    def test_single_read_latency(self, flash):
        end = flash.read_pages([index(0, 0, 0, 0)], 0.0)
        assert end == pytest.approx(10e-6 + XFER)

    def test_reads_on_different_channels_are_parallel(self, flash):
        ppas = [index(c, 0, 0, 0) for c in range(4)]
        end = flash.read_pages(ppas, 0.0)
        assert end == pytest.approx(10e-6 + XFER)

    def test_reads_on_same_bank_serialize_sensing(self, flash):
        ppas = [index(0, 0, 0, p) for p in range(2)]
        end = flash.read_pages(ppas, 0.0)
        # page 0: sense 10 + xfer 10 = 20; bank held during transfer, so
        # page 1 senses [20, 30], transfers [30, 40]
        assert end == pytest.approx(40e-6)

    def test_reads_on_same_channel_different_banks_pipeline(self, flash):
        ppas = [index(0, b, 0, 0) for b in range(2)]
        end = flash.read_pages(ppas, 0.0)
        # both sense in parallel [0,10]; transfers serialize on the channel
        assert end == pytest.approx(10e-6 + 2 * XFER)

    def test_issue_time_offsets_schedule(self, flash):
        end = flash.read_pages([index(0, 0, 0, 0)], 5e-6)
        assert end == pytest.approx(5e-6 + 20e-6)
        # the die senses from the issue time on: 10 us on the bank, then
        # the transfer on the channel ends with the read
        bank = flash.bank_lines[0][0]
        assert bank.busy_time == pytest.approx(10e-6)
        assert flash.channel_lines[0].free_at == end


class TestProgramSemantics:
    def test_program_then_read_roundtrip(self, flash):
        ppa = index(1, 0, 0, 0)
        payload = np.arange(1000, dtype=np.uint8) % 251
        flash.program_pages([ppa], 0.0, data=[payload])
        assert flash.is_programmed(ppa)
        assert np.array_equal(flash.page_data(ppa), payload)

    def test_short_payload_zero_padded(self, flash):
        ppa = index(0, 0, 0, 0)
        flash.program_pages([ppa], 0.0, data=[np.ones(10, dtype=np.uint8)])
        page = flash.page_data(ppa)
        assert page[:10].sum() == 10
        assert page[10:].sum() == 0

    def test_oversize_payload_rejected(self, flash):
        ppa = index(0, 0, 0, 0)
        with pytest.raises(ValueError):
            flash.program_pages([ppa], 0.0,
                                data=[np.zeros(1001, dtype=np.uint8)])

    def test_program_twice_without_erase_raises(self, flash):
        ppa = index(0, 0, 0, 0)
        flash.program_pages([ppa], 0.0)
        with pytest.raises(FlashStateError):
            flash.program_pages([ppa], 0.0)

    def test_erase_allows_reprogram(self, flash):
        ppa = index(0, 0, 2, 3)
        flash.program_pages([ppa], 0.0, data=[np.full(5, 9, np.uint8)])
        flash.erase_block(0, 0, 2, 0.0)
        assert not flash.is_programmed(ppa)
        assert flash.page_data(ppa).sum() == 0
        flash.program_pages([ppa], 0.0)  # must not raise

    def test_program_timing_transfer_then_bank(self, flash):
        end = flash.program_pages([index(0, 0, 0, 0)], 0.0)
        assert end == pytest.approx(XFER + 100e-6)

    def test_unwritten_page_reads_zero(self, flash):
        assert flash.page_data(index(3, 1, 3, 7)).sum() == 0


class TestErase:
    def test_erase_occupies_bank(self, flash):
        end = flash.erase_block(0, 0, 0, 0.0)
        assert end == pytest.approx(500e-6)
        read = flash.read_pages([index(0, 0, 1, 0)], 0.0)
        # the bank is busy until the erase finishes
        assert read == pytest.approx(500e-6 + 20e-6)


class TestTimingOnlyMode:
    def test_no_nand_enforcement(self, geometry, timing):
        flash = FlashArray(geometry, timing, store_data=False)
        ppa = index(0, 0, 0, 0)
        flash.program_pages([ppa], 0.0)
        flash.program_pages([ppa], 0.0)  # allowed in timing-only mode

    def test_stats_counting(self, flash):
        flash.read_pages([index(0, 0, 0, 0)], 0.0)
        flash.program_pages([index(0, 0, 0, 1)], 0.0)
        assert flash.stats.get_count("pages_read") == 1
        assert flash.stats.get_count("pages_programmed") == 1


def test_reset_time_preserves_content(flash):
    ppa = index(2, 1, 0, 0)
    flash.program_pages([ppa], 0.0, data=[np.full(4, 7, np.uint8)])
    flash.reset_time()
    assert flash.channel_lines[2].free_at == 0.0
    assert flash.page_data(ppa)[0] == 7
