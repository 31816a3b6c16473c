"""Typed fault errors name their page as a ``PhysicalPageAddress``.

The FTL and STL tables hold plain page indices; a fault error decodes
its page at the edge. These cells pin, for errors raised through the
STL and ``BaselineSSD`` paths (not the flash array's public methods),
that ``err.ppa`` is a ``PhysicalPageAddress`` with the expected fields
and that the message text names it the same way:

* a read on a dead channel (``UncorrectableError``, ``channel_dead``);
* a read that exhausts the ECC retry ladder (``corrupt``);
* a program failure that the write re-drives past the grown bad block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SpaceTranslationLayer
from repro.faults import (FaultConfig, FaultInjector, FaultPlan,
                          ProgramFailError, UncorrectableError)
from repro.ftl import BaselineSSD
from repro.nvm import TINY_TEST, FlashArray
from repro.nvm.address import PhysicalPageAddress

#: after the writes below have finished, before the reads
LATER = 0.001
RETRIES = len(FaultConfig().retry_sense_factors)


def _stl(plan: FaultPlan):
    """A 32x32x4 B space written whole on ``TINY_TEST``: four 4-unit
    blocks, block (0, 0) on ch1, ch0, ch2, ch3 of bank 0 and block
    (1, 1) on ch1, ch0, ch2, ch3 of bank 1, page 1."""
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing)
    flash.attach_faults(FaultInjector(FaultConfig(plan=plan)))
    stl = SpaceTranslationLayer(flash)
    space = stl.create_space((32, 32), 4)
    data = (np.arange(32 * 32 * 4) % 251).astype(np.uint8).reshape(32, 32, 4)
    end = stl.write_region(space.space_id, (0, 0), (32, 32),
                           data=data).end_time
    assert end < LATER
    return stl, space.space_id, data


def _ssd(plan: FaultPlan, pages: int = 8):
    """``pages`` LPNs written from 0: LPN n lands on channel n % 4,
    bank (n // 4) % 2, block 0 of a fresh device."""
    ssd = BaselineSSD(TINY_TEST, store_data=True)
    ssd.flash.attach_faults(FaultInjector(FaultConfig(plan=plan)))
    lpns = list(range(pages))
    payload = [np.full(ssd.page_size, lpn + 1, dtype=np.uint8)
               for lpn in lpns]
    assert ssd.write_lpns(lpns, 0.0, data=payload).end_time < LATER
    return ssd, lpns, payload


def _spy_program_fails(monkeypatch) -> list:
    """Every ``ProgramFailError`` built while the spy is installed."""
    made: list = []
    original = ProgramFailError.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ProgramFailError, "__init__", spy)
    return made


def _check(err, fields, text: str) -> None:
    assert type(err.ppa) is PhysicalPageAddress
    assert tuple(err.ppa) == fields
    assert (err.ppa.channel, err.ppa.bank, err.ppa.block,
            err.ppa.page) == fields
    assert str(err) == text


class TestUncorrectableReads:
    def test_stl_dead_channel_read(self):
        stl, sid, _ = _stl(FaultPlan().kill_channel(2, at=LATER))
        with pytest.raises(UncorrectableError) as info:
            stl.read_region(sid, (0, 0), (16, 16), start_time=2 * LATER)
        assert info.value.reason == "channel_dead"
        _check(info.value, (2, 0, 0, 0),
               "uncorrectable read at PhysicalPageAddress(channel=2, "
               "bank=0, block=0, page=0) after 0 retries (channel_dead)")

    def test_ssd_dead_channel_read(self):
        ssd, lpns, _ = _ssd(FaultPlan().kill_channel(1, at=LATER))
        with pytest.raises(UncorrectableError) as info:
            ssd.read_lpns(lpns, 2 * LATER)
        assert info.value.fail_time == 2 * LATER
        _check(info.value, (1, 0, 0, 0),
               "uncorrectable read at PhysicalPageAddress(channel=1, "
               "bank=0, block=0, page=0) after 0 retries (channel_dead)")

    def test_stl_ecc_ladder_failure(self):
        stl, sid, _ = _stl(FaultPlan().corrupt_page(3, 1, 0, 1, at=LATER))
        with pytest.raises(UncorrectableError) as info:
            stl.read_region(sid, (16, 16), (16, 16), start_time=2 * LATER)
        assert info.value.retries == RETRIES
        _check(info.value, (3, 1, 0, 1),
               "uncorrectable read at PhysicalPageAddress(channel=3, "
               f"bank=1, block=0, page=1) after {RETRIES} retries "
               "(corrupt)")

    def test_ssd_ecc_ladder_failure(self):
        ssd, lpns, _ = _ssd(FaultPlan().corrupt_page(2, 1, 0, 0, at=LATER))
        with pytest.raises(UncorrectableError) as info:
            ssd.read_lpns(lpns, 2 * LATER)
        _check(info.value, (2, 1, 0, 0),
               "uncorrectable read at PhysicalPageAddress(channel=2, "
               f"bank=1, block=0, page=0) after {RETRIES} retries "
               "(corrupt)")


class TestProgramFailRedrive:
    def test_stl_redrive(self, monkeypatch):
        made = _spy_program_fails(monkeypatch)
        stl, sid, data = _stl(FaultPlan().mark_block_bad(1, 0, 0, at=0.0))
        assert [(tuple(err.ppa), str(err)) for err in made] == [
            ((1, 0, 0, 0), "program failure at PhysicalPageAddress("
             "channel=1, bank=0, block=0, page=0) (bad_block)")]
        _check(made[0], (1, 0, 0, 0), str(made[0]))
        assert stl.gc.total_retired == 1
        back = stl.read_region(sid, (0, 0), (32, 32), start_time=LATER)
        assert np.array_equal(back.data, data)

    def test_ssd_redrive(self, monkeypatch):
        made = _spy_program_fails(monkeypatch)
        ssd, lpns, payload = _ssd(FaultPlan().mark_block_bad(3, 1, 0,
                                                             at=0.0))
        assert [(tuple(err.ppa), str(err)) for err in made] == [
            ((3, 1, 0, 0), "program failure at PhysicalPageAddress("
             "channel=3, bank=1, block=0, page=0) (bad_block)")]
        _check(made[0], (3, 1, 0, 0), str(made[0]))
        assert ssd.gc.total_retired == 1
        back = ssd.read_lpns(lpns, LATER, with_data=True)
        assert all(np.array_equal(want, got)
                   for want, got in zip(payload, back.data))
