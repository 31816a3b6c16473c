"""Differential check: an injector that never fires changes nothing.

The STL's ``write_block`` and ``BaselineSSD._program_lpns`` send the
programs between two GC events to the flash array as one batch, with or
without a fault injector. An attached injector is asked for each unit's
program verdict when the unit binds; only a unit whose verdict fails is
programmed alone, so that its status-fail can re-drive it. So an
injector that never fires (no bit errors, no program or erase fails, no
plan) must leave every op's end time, every timeline and the placement
state exactly as they are without one. Each run churns under GC
pressure: plain STL writes, compressed STL writes and the baseline
FTL's writes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core import SpaceTranslationLayer
from repro.core.compression import ZlibCompressor
from repro.faults import FaultConfig, FaultInjector
from repro.ftl import BaselineSSD
from repro.nvm import TINY_TEST, FlashArray

#: an injector whose draws never fail: no RBER, no program/erase fails
NEVER = FaultConfig(rber_base=0, ecc_rber=1, parity=False)
#: the tiny device with 16 blocks per bank, as in the placement goldens
PROFILE = replace(TINY_TEST, geometry=replace(TINY_TEST.geometry,
                                              blocks_per_bank=16))
OPS = 120
OP_GAP = 1e-3


def _lines(flash) -> list:
    lines = list(flash.channel_lines)
    for row in flash.bank_lines:
        lines.extend(row)
    return [[line.name, line.free_at.hex(), line.busy_time.hex(),
             line.ops] for line in lines]


def _planes(planes) -> list:
    return [[list(key), planes[key].free_pages,
             [[b, [o is not None for o in s.owners], s.next_page,
               s.erase_count]
              for b, s in sorted(planes[key].blocks.items())]]
            for key in sorted(planes)]


def _digest(ends: list, state: list) -> str:
    return hashlib.sha256(json.dumps([ends, state]).encode()).hexdigest()


def _stl_run(compressed: bool, injector) -> tuple:
    flash = FlashArray(PROFILE.geometry, PROFILE.timing, store_data=True)
    if injector is not None:
        flash.attach_faults(injector)
    stl = SpaceTranslationLayer(
        flash, gc_threshold=0.25,
        compressor=ZlibCompressor() if compressed else None)
    rng = np.random.default_rng(23)
    spaces = [stl.create_space((128, 128), 4),
              stl.create_space((64, 64), 4, bb_override=(32, 32))]
    ends = []
    now = 0.0
    for step in range(OPS + len(spaces)):
        space = spaces[step % len(spaces)]
        if step < len(spaces):
            origin, extents = (0, 0), space.dims
        else:
            extents = [int(rng.integers(1, b + 1)) for b in space.bb]
            origin = [int(rng.integers(0, d - e + 1))
                      for d, e in zip(space.dims, extents)]
        data = rng.integers(0, 256, tuple(extents) + (4,), dtype=np.uint8)
        if rng.random() < 0.5:
            data &= 0x03
        ends.append(stl.write_region(space.space_id, origin, extents,
                                     data=data, start_time=now)
                    .end_time.hex())
        now += OP_GAP
    entries = sorted(
        [space_id, list(entry.coord),
         list(entry.pages),
         entry.usage, entry.stored_bytes]
        for space_id in sorted(stl.indexes)
        for entry in stl.indexes[space_id].iter_entries())
    state = [entries, _planes(stl.allocator.planes), _lines(flash),
             dict(sorted(stl.stats.counters.items())),
             dict(sorted(flash.stats.counters.items()))]
    return ends, state, stl.gc.total_erased


def _ssd_run(injector) -> tuple:
    ssd = BaselineSSD(PROFILE)
    if injector is not None:
        ssd.flash.attach_faults(injector)
    rng = np.random.default_rng(29)
    page = ssd.page_size
    # keep half the logical space live so the churn stays collectable
    live = ssd.logical_pages // 2
    ends = []
    now = 0.0
    for step in range(OPS):
        count = int(rng.integers(1, 24))
        first = 0 if step == 0 else int(rng.integers(0, live - count))
        if step == 0:
            count = live
        lpns = list(range(first, first + count))
        data = [rng.integers(0, 256, page, dtype=np.uint8) for _ in lpns]
        ends.append(ssd.write_lpns(lpns, now, data=data).end_time.hex())
        now += OP_GAP
    state = [sorted(ssd.ftl.map.items()),
             _planes(ssd.ftl.planes), _lines(ssd.flash),
             dict(sorted(ssd.flash.stats.counters.items()))]
    return ends, state, ssd.gc.total_erased


@pytest.mark.parametrize("compressed", [False, True],
                         ids=["plain", "compressed"])
def test_stl_write_is_blind_to_an_idle_injector(compressed):
    bare_ends, bare_state, erased = _stl_run(compressed, None)
    injector = FaultInjector(NEVER)
    ends, state, _ = _stl_run(compressed, injector)
    assert erased > 0, "the churn never collected"
    assert ends == bare_ends
    assert _digest(ends, state) == _digest(bare_ends, bare_state)
    assert not any(key.endswith("fails") for key in injector.stats.counters)


def test_ssd_write_is_blind_to_an_idle_injector():
    bare_ends, bare_state, erased = _ssd_run(None)
    injector = FaultInjector(NEVER)
    ends, state, _ = _ssd_run(injector)
    assert erased > 0, "the churn never collected"
    assert ends == bare_ends
    assert _digest(ends, state) == _digest(bare_ends, bare_state)
    assert not any(key.endswith("fails") for key in injector.stats.counters)
