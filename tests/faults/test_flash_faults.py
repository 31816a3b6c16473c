"""Flash-array fault integration: retry timing, typed errors, and the
bit-identical-when-clean guarantee."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (EraseFailError, FaultConfig, FaultInjector,
                          FaultPlan, ProgramFailError, UncorrectableError)
from repro.nvm import TINY_TEST
from repro.nvm.address import PhysicalPageAddress, ppa_to_index
from repro.nvm.flash import FlashArray
from repro.obs.probe import Probe
from repro.runtime import TraceRecorder


def _flash(config=None) -> FlashArray:
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing, store_data=True)
    if config is not None:
        flash.attach_faults(FaultInjector(config))
    return flash


def _index(channel: int, bank: int, block: int, page: int) -> int:
    """The page index the array's methods take."""
    return ppa_to_index(PhysicalPageAddress(channel, bank, block, page),
                        TINY_TEST.geometry)


def _spread_ppas(count: int):
    """Pages spread over channels/banks the way the allocators stripe."""
    geo = TINY_TEST.geometry
    return [_index(i % geo.channels,
                   (i // geo.channels) % geo.banks_per_channel,
                   0, i // (geo.channels * geo.banks_per_channel))
            for i in range(count)]


def _timelines(flash: FlashArray) -> list:
    """Every channel and bank timeline's state, bit for bit."""
    lines = flash.channel_lines + [line for row in flash.bank_lines
                                   for line in row]
    return [(line.free_at.hex(), line.busy_time.hex(), line.ops)
            for line in lines]


class TestCleanPathIsBitIdentical:
    def test_default_config_matches_detached_timings(self):
        """A healthy-device injector (default config, no plan) must not
        perturb a single reservation: with faults disabled the golden
        timings stay bit-identical."""
        plain, faulted = _flash(), _flash(FaultConfig())
        ppas = _spread_ppas(16)
        payload = [np.full(256, i, dtype=np.uint8) for i in range(16)]
        write_a = plain.program_pages(ppas, 0.0, data=payload)
        write_b = faulted.program_pages(ppas, 0.0, data=payload)
        assert write_a == write_b
        assert _timelines(plain) == _timelines(faulted)
        read_a = plain.read_pages(ppas, write_a)
        read_b = faulted.read_pages(ppas, write_b)
        assert read_a == read_b
        assert _timelines(plain) == _timelines(faulted)
        erase_a = plain.erase_block(0, 0, 0, read_a)
        erase_b = faulted.erase_block(0, 0, 0, read_b)
        assert erase_a == erase_b
        assert _timelines(plain) == _timelines(faulted)
        assert "read_retries" not in faulted.stats.counters


class TestRetryLadder:
    def test_corrupt_page_walks_ladder_then_fails(self):
        flash = _flash(FaultConfig(
            plan=FaultPlan().corrupt_page(0, 0, 0, 0, at=0.0)))
        trace = TraceRecorder()
        flash.probe = Probe(trace=trace)
        ppa = _index(0, 0, 0, 0)
        flash.program_pages([ppa], 0.0, data=[np.arange(256, dtype=np.uint8)])
        clean_end = _flash().read_pages([_index(0, 0, 0, 0)], 1.0)
        with pytest.raises(UncorrectableError) as info:
            flash.read_pages([ppa], 1.0)
        err = info.value
        assert err.reason == "corrupt"
        assert err.retries == len(FaultConfig().retry_sense_factors)
        # each retry re-senses and re-transfers: failure is detected
        # strictly after a clean read would have completed
        assert err.fail_time > clean_end
        assert flash.stats.counters["read_retries"] == err.retries
        assert flash.faults.stats.counters["uncorrectable_reads"] == 1
        retry_spans = [s for s in trace.spans if s.name == "read_retry"]
        assert len(retry_spans) == err.retries

    def test_retries_charge_sense_factors(self):
        """A single forced retry extends the read by the configured
        sense multiple plus one extra page transfer."""
        config = FaultConfig(rber_base=1e-2, jitter_log2=0.0,
                             retry_rber_gain=(2.0,),
                             retry_sense_factors=(1.5,))
        flash = _flash(config)
        ppa = _index(0, 0, 0, 0)
        flash.program_pages([ppa], 0.0, data=[np.zeros(256, np.uint8)])
        clean = _flash().read_pages([_index(0, 0, 0, 0)], 1.0)
        retried = flash.read_pages([ppa], 1.0)
        xfer = TINY_TEST.timing.transfer_time(TINY_TEST.geometry.page_size)
        expected = clean + 1.5 * TINY_TEST.timing.t_read + xfer
        assert retried == pytest.approx(expected)


class TestStructuralFailures:
    def test_dead_channel_read_raises_immediately(self):
        flash = _flash(FaultConfig(
            plan=FaultPlan().kill_channel(0, at=0.05)))
        ppa = _index(0, 0, 0, 0)
        flash.program_pages([ppa], 0.0, data=[np.zeros(256, np.uint8)])
        with pytest.raises(UncorrectableError) as info:
            flash.read_pages([ppa], 0.1)
        assert info.value.reason == "channel_dead"
        assert flash.faults.stats.counters["dead_channel_reads"] == 1
        # the other channels keep working
        other = _index(1, 0, 0, 0)
        flash.program_pages([other], 0.2, data=[np.zeros(256, np.uint8)])
        flash.read_pages([other], 0.3)

    def test_bad_block_program_and_erase_fail_with_charged_time(self):
        flash = _flash(FaultConfig(
            plan=FaultPlan().mark_block_bad(0, 0, 3, at=0.0)))
        ppa = _index(0, 0, 3, 0)
        with pytest.raises(ProgramFailError) as info:
            flash.program_pages([ppa], 0.0, data=[np.zeros(256, np.uint8)])
        assert info.value.reason == "bad_block"
        # the failed attempt occupied the bus and the array first
        assert info.value.fail_time > 0.0
        assert not flash.is_programmed(ppa)
        with pytest.raises(EraseFailError) as info:
            flash.erase_block(0, 0, 3, 0.1)
        assert info.value.reason == "bad_block"
        assert flash.faults.stats.counters["program_fails"] == 1
        assert flash.faults.stats.counters["erase_fails"] == 1

    def test_erase_clears_scripted_corruption(self):
        flash = _flash(FaultConfig(
            plan=FaultPlan().corrupt_page(0, 0, 0, 0, at=0.0)))
        ppa = _index(0, 0, 0, 0)
        flash.program_pages([ppa], 0.0, data=[np.zeros(256, np.uint8)])
        with pytest.raises(UncorrectableError):
            flash.read_pages([ppa], 0.1)
        end = flash.erase_block(0, 0, 0, 0.2)
        flash.program_pages([ppa], end, data=[np.zeros(256, np.uint8)])
        flash.read_pages([ppa], end + 0.01)  # clean again
        assert flash.faults.erase_count((0, 0, 0)) == 1
