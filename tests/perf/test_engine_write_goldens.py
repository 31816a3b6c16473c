"""Exact-equality gates for the baseline write flow through the host
I/O engine.

``engine_write_goldens.json`` was captured before the engine started
driving the FTL write step directly (instead of one
``BaselineSSD.write_lpns`` call per request). Each cell runs a
``BaselineSystem`` on a GC-dense tiny device: a chunked ingest, then a
seeded mix of row-run ``write_tile``s (one 1-LPN request per row) and
full-width writes (one multi-LPN request that crosses FTL GC mid-way).
It pins, bit for bit:

* every op's end time (``float.hex()``, or ``!ErrorName`` when the op
  raised), request count and fetched bytes;
* every op's ``SystemOpResult.stats``, key order included;
* the flash, host CPU and link ``StatSet``s (key order included), the
  fault counters and the GC totals;
* every timeline's ``free_at``/``busy_time``/``ops`` (flash, device
  controller, host issue and copy cores, link);
* a SHA-256 over the FTL map, the GC reverse table, the plane states
  (valid bitmaps, append points, free pools) and the stored page bytes.

The cells: ``timing`` (timing-only), ``data`` (``store_data=True``; the
read-back must equal a numpy mirror) and ``faults`` (a program-fail
rate plus grown bad blocks, so the per-page retry loop runs).

Re-record (only after a change meant to move the model) with::

    PYTHONPATH=src python tests/perf/test_engine_write_goldens.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultPlan
from repro.nvm import TINY_TEST
from repro.nvm.address import index_to_ppa
from repro.systems import BaselineSystem
from tests.owner_slots import ftl_reverse_rows

GOLDEN_PATH = Path(__file__).parent / "engine_write_goldens.json"

#: the tiny device with 16 blocks per bank: 1024 pages, 921 logical
PROFILE = replace(TINY_TEST, geometry=replace(TINY_TEST.geometry,
                                              blocks_per_bank=16))
#: fp32 matrix of 384 x 128: a row is 512 B (2 pages), 768 pages in all
ROWS, COLS, ELEMENT = 384, 128, 4
#: ingest goes out in 4 KiB (16-page) requests
MAX_REQUEST_BYTES = 4096
OPS = 48
#: ops are issued this far apart in model time
OP_GAP = 1e-3
#: (channel, bank, block, time) grown bad in the fault cell
BAD_BLOCKS = ((0, 0, 3, 0.0), (1, 1, 9, 0.004), (2, 0, 12, 0.01),
              (3, 1, 1, 0.02))

CELLS = ("timing", "data", "faults")


def _faults(cell: str) -> FaultConfig | None:
    if cell != "faults":
        return None
    plan = FaultPlan()
    for channel, bank, block, at in BAD_BLOCKS:
        plan.mark_block_bad(channel, bank, block, at=at)
    return FaultConfig(seed=23, program_fail_base=0.004, plan=plan)


def _stats(stats) -> list:
    return ([[key, value] for key, value in stats.counters.items()]
            + [[key, value.hex()] for key, value in stats.times.items()])


def _ops(rng: random.Random) -> list:
    """``(origin, extents)`` of every write after the ingest: row-run
    tiles (one 1-LPN request per row) and full-width writes (one
    request of two pages per row)."""
    ops = []
    for _ in range(OPS):
        if rng.random() < 0.6:
            rows = rng.choice((4, 8, 16))
            origin = (rng.randrange(0, ROWS - rows + 1), rng.choice((0, 64)))
            ops.append((origin, (rows, 64)))
        else:
            rows = rng.choice((8, 16, 32))
            origin = (rng.randrange(0, ROWS - rows + 1), 0)
            ops.append((origin, (rows, COLS)))
    return ops


def _state(system) -> list:
    ssd = system.ssd
    forward = sorted([lpn, *index_to_ppa(ppa, ssd.geometry)]
                     for lpn, ppa in ssd.ftl.map.items())
    reverse = ftl_reverse_rows(ssd.ftl.planes)
    planes = []
    for key in sorted(ssd.ftl.planes):
        plane = ssd.ftl.planes[key]
        blocks = [[b, [o is not None for o in s.owners], s.next_page,
                   s.erase_count, s.retired, s.filled_seq]
                  for b, s in sorted(plane.blocks.items())]
        planes.append([list(key), plane.free_pages, plane.active_block,
                       list(plane.free_blocks), blocks])
    return [forward, reverse, planes]


def run_cell(cell: str) -> dict:
    store = cell != "timing"
    system = BaselineSystem(PROFILE, store_data=store,
                            max_request_bytes=MAX_REQUEST_BYTES,
                            faults=_faults(cell))
    rng = random.Random(31)
    mirror = None
    if store:
        mirror = np.frombuffer(rng.randbytes(ROWS * COLS * ELEMENT),
                               dtype=np.float32).reshape(ROWS, COLS).copy()
    outcomes = []
    op_stats = []

    def record(index: int, run) -> bool:
        try:
            result = run(index * OP_GAP)
        except Exception as err:  # pinned: which op raised what
            outcomes.append("!" + type(err).__name__)
            op_stats.append(None)
            return False
        outcomes.append([result.end_time.hex(), result.requests,
                         result.fetched_bytes])
        op_stats.append(_stats(result.stats))
        return True

    record(0, lambda now: system.ingest("m", (ROWS, COLS), ELEMENT,
                                        data=mirror, start_time=now))
    for index, (origin, extents) in enumerate(_ops(rng), start=1):
        tile = None
        if store:
            tile = np.frombuffer(
                rng.randbytes(extents[0] * extents[1] * ELEMENT),
                dtype=np.float32).reshape(extents).copy()
        done = record(index, lambda now: system.write_tile(
            "m", origin, extents, data=tile, start_time=now))
        if done and store:
            mirror[origin[0]:origin[0] + extents[0],
                   origin[1]:origin[1] + extents[1]] = tile
    readback = None
    if store:
        back = system.read_tile("m", (0, 0), (ROWS, COLS),
                                start_time=(OPS + 1) * OP_GAP,
                                with_data=True, dtype=np.float32)
        readback = bool(np.array_equal(back.data.view(np.uint32),
                                       mirror.view(np.uint32)))

    ssd = system.ssd
    flash = ssd.flash
    digest = hashlib.sha256(json.dumps(_state(system)).encode())
    for idx in sorted(flash._pages):
        digest.update(idx.to_bytes(4, "little"))
        digest.update(flash._pages[idx].tobytes())
    lines = list(flash.channel_lines)
    for row in flash.bank_lines:
        lines.extend(row)
    lines += [system.engine.controller_line, system.cpu.issue_line,
              *system.cpu.copy_lines.servers, system.link.line]
    faults = flash.faults
    return {
        "outcomes": outcomes,
        "op_stats": op_stats,
        "readback_equal": readback,
        "lines": [[line.name, line.free_at.hex(), line.busy_time.hex(),
                   line.ops] for line in lines],
        "flash_stats": _stats(flash.stats),
        "cpu_stats": _stats(system.cpu.stats),
        "link_stats": _stats(system.link.stats),
        "fault_stats": (_stats(faults.stats) if faults is not None
                        else None),
        "gc": {"relocated": ssd.gc.total_relocated,
               "erased": ssd.gc.total_erased,
               "retired": ssd.gc.total_retired},
        "state_sha256": digest.hexdigest(),
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cell", CELLS)
def test_engine_writes_bit_identical(cell):
    want = _golden()[cell]
    got = run_cell(cell)
    assert got["gc"] == want["gc"]
    assert got["flash_stats"] == want["flash_stats"]
    assert got["cpu_stats"] == want["cpu_stats"]
    assert got["link_stats"] == want["link_stats"]
    assert got["fault_stats"] == want["fault_stats"]
    assert got["outcomes"] == want["outcomes"]
    assert got["op_stats"] == want["op_stats"]
    assert got["lines"] == want["lines"]
    assert got["readback_equal"] == want["readback_equal"]
    assert got["state_sha256"] == want["state_sha256"]


@pytest.mark.parametrize("cell", CELLS)
def test_cell_exercises_its_path(cell):
    """Each cell really drives what it is named for: GC inside
    multi-LPN requests, 1-LPN row runs, and (fault cell) the retry
    loop's program failures and retirements."""
    want = _golden()[cell]
    assert want["gc"]["relocated"] > 0 and want["gc"]["erased"] > 0
    gc_requests = [
        outcome[1] for outcome, stats in zip(want["outcomes"],
                                             want["op_stats"])
        if stats and dict(map(tuple, stats)).get("gc_blocks_erased")]
    # GC inside a one-request (multi-LPN) write, and inside a row-run
    # tile of 1-LPN requests
    assert 1 in gc_requests
    assert max(gc_requests) >= 4
    if cell == "faults":
        faults = dict(map(tuple, want["fault_stats"]))
        assert faults["program_fails"] > 0
        assert want["gc"]["retired"] > 0
    else:
        assert want["fault_stats"] is None
        assert all(isinstance(o, list) for o in want["outcomes"])
    if cell == "data":
        assert want["readback_equal"] is True


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps({cell: run_cell(cell)
                                       for cell in CELLS}, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
