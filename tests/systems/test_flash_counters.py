"""The flash array's page and erase counters equal the reservations
behind them.

Every page read or program reserves its bank once and its channel once,
and every erase reserves its bank once, so on a fault-free run the
array's ``pages_read + pages_programmed + blocks_erased`` equals the
growth of its bank timelines' summed ``ops``, and ``pages_read +
pages_programmed`` the growth of its channel timelines' summed ``ops``.
The runs cover ingest, overwrites dense enough that GC relocates pages
and erases blocks, and reads, on software NDS, hardware NDS and the
baseline, functional and timing-only. A read that raises on a dead
channel still counts the pages it read before the failing one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultError, FaultPlan
from repro.nvm import TINY_TEST
from repro.systems import BaselineSystem, HardwareNdsSystem, SoftwareNdsSystem

DIMS = (192, 64)
ROWS = 8


def _device(system):
    """The STL or the SSD: either holds ``flash`` and ``gc``."""
    return system.ssd if isinstance(system, BaselineSystem) else system.stl


def _snapshot(flash) -> tuple:
    counters = flash.stats.counters
    return (counters.get("pages_read", 0),
            counters.get("pages_programmed", 0),
            counters.get("blocks_erased", 0),
            sum(line.ops for row in flash.bank_lines for line in row),
            sum(line.ops for line in flash.channel_lines))


def _run(system, writes: int, functional: bool) -> tuple:
    """Ingest, overwrite ``writes`` random tiles, read; returns the
    flash counters' and timelines' deltas over the whole run. Baseline
    tiles span whole rows (a row is one page); NDS tiles are half rows,
    so their writes read-modify-write."""
    flash = _device(system).flash
    before = _snapshot(flash)
    rng = np.random.default_rng(3)
    data = rng.integers(0, 2**31, DIMS).astype(np.int32)
    system.ingest("m", DIMS, 4, data=data if functional else None)
    width = DIMS[1] if isinstance(system, BaselineSystem) else DIMS[1] // 2
    now = 0.0
    for _ in range(writes):
        row = int(rng.integers(0, DIMS[0] - ROWS + 1))
        col = int(rng.integers(0, DIMS[1] // width)) * width
        tile = rng.integers(0, 2**31, (ROWS, width)).astype(np.int32)
        now = system.write_tile("m", (row, col), (ROWS, width),
                                data=tile if functional else None,
                                start_time=now).end_time
        data[row:row + ROWS, col:col + width] = tile
    for origin, extents in (((0, 0), DIMS), ((40, 8), (24, 40))):
        result = system.read_tile("m", origin, extents, start_time=now,
                                  with_data=functional, dtype=np.int32)
        now = result.end_time
        if functional:
            (r0, c0), (rows, cols) = origin, extents
            assert np.array_equal(result.data,
                                  data[r0:r0 + rows, c0:c0 + cols])
    after = _snapshot(flash)
    return tuple(b - a for a, b in zip(before, after))


def _assert_ledger(deltas: tuple) -> None:
    read, programmed, erased, bank_ops, channel_ops = deltas
    assert read + programmed + erased == bank_ops
    assert read + programmed == channel_ops


@pytest.mark.parametrize("system_cls", [SoftwareNdsSystem,
                                        HardwareNdsSystem, BaselineSystem],
                         ids=["software", "hardware", "baseline"])
def test_functional_counters_equal_reservations(system_cls):
    system = system_cls(TINY_TEST, store_data=True)
    deltas = _run(system, writes=80, functional=True)
    assert deltas[2] > 0
    assert _device(system).gc.total_relocated > 0
    _assert_ledger(deltas)


def test_gc_dense_timing_only_counters_equal_reservations():
    system = SoftwareNdsSystem(TINY_TEST, store_data=False)
    deltas = _run(system, writes=300, functional=False)
    assert deltas[2] > 100
    assert system.stl.gc.total_relocated > 50
    _assert_ledger(deltas)


@pytest.mark.parametrize("system_cls, parity", [
    (BaselineSystem, False), (SoftwareNdsSystem, False),
    (SoftwareNdsSystem, True), (HardwareNdsSystem, False)],
    ids=["baseline", "software", "software-parity", "hardware"])
def test_raised_read_counts_pages_before_the_error(system_cls, parity):
    """Channel 2 dies before the read, so the read raises part way
    through its chain; the pages read until then are counted."""
    config = FaultConfig(rber_base=0, parity=parity,
                         plan=FaultPlan().kill_channel(2, at=0.5))
    system = system_cls(TINY_TEST, store_data=True, faults=config)
    flash = _device(system).flash
    before = _snapshot(flash)
    data = np.arange(64 * 64, dtype=np.int32).reshape(64, 64)
    system.ingest("m", data.shape, 4, data=data)
    with pytest.raises(FaultError):
        system.read_tile("m", (0, 0), data.shape, start_time=1.0,
                         with_data=True)
    read, programmed, erased, bank_ops, _channel_ops = (
        b - a for a, b in zip(before, _snapshot(flash)))
    assert read > 0
    assert read + programmed + erased == bank_ops
