"""Exact-equality gates for the linear systems' read flow through the
host I/O engine.

``engine_read_goldens.json`` was captured before the engine took its
requests as one columnar run (first LPN, page count, useful bytes and
placement chunk per request) instead of one request object each. Each
cell runs a linear system on a GC-dense tiny device: an ingest, a few
trimmed LPNs, then a seeded mix of reads and writes, so reads land on
pages FTL GC has moved. It pins, bit for bit:

* every engine call (``run_reads`` or ``run_writes``, wrapped on the
  engine instance): each request's completion and the call's end time
  (``float.hex()``), useful and fetched bytes and ``stats``, key order
  included;
* every op's end time (or ``!ErrorName`` when the op raised), request
  count, fetched bytes and ``stats``, key order included; for
  functional reads a SHA-256 of the bytes and whether they equal a
  numpy mirror;
* the flash ``StatSet``, the GC totals, the DRAM tier's report and
  every timeline's ``free_at``/``busy_time``/``ops`` (flash, device
  controller, host issue and copy cores, link), which also count the
  host and link requests;
* a SHA-256 over the FTL map, the GC reverse table and the plane
  states.

The cells:

``timing``
    Timing-only baseline: row-run tiles (one 1-page request per row),
    tiles at a half-page column offset (2-page requests), full-width
    reads split above ``max_request_bytes`` (DMA-direct, no placement
    copy) and reads of trimmed, unmapped LPNs.
``data``
    The same mix with ``store_data=True`` and ``with_data=True``
    reads; unmapped pages read back as zeros.
``col``
    A ``layout="col"`` dataset, functional.
``oracle``
    The tile-major oracle, functional: each tile is two saturating
    requests with a placement copy each.
``tier``
    A timing-only baseline behind an LRU write-back DRAM tier: whole
    run hits, flushes of dirty runs that overlap a read or a write of
    another shape, dirty-bound and eviction flushes, and a closing
    ``flush_cache()`` fence.

Re-record (only after a change meant to move the model) with::

    PYTHONPATH=src python tests/perf/test_engine_read_goldens.py --record
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

from repro.cache import CacheConfig
from repro.nvm import TINY_TEST
from repro.nvm.address import index_to_ppa
from repro.systems import BaselineSystem, OracleSystem
from tests.owner_slots import ftl_reverse_rows

GOLDEN_PATH = Path(__file__).parent / "engine_read_goldens.json"

#: the tiny device with 16 blocks per bank: 1024 pages, 921 logical
PROFILE = replace(TINY_TEST, geometry=replace(TINY_TEST.geometry,
                                              blocks_per_bank=16))
#: fp32 matrix of 384 x 128: a row is 512 B (2 pages), 768 pages in all
ROWS, COLS, ELEMENT = 384, 128, 4
#: 4 KiB (16-page) requests at most
MAX_REQUEST_BYTES = 4096
#: the oracle's stored tile: 8 KiB, so two requests per tile
ORACLE_TILE = (32, 64)
#: rows whose first page is trimmed after the ingest (unmapped LPNs)
TRIMMED_ROWS = range(40, 56)
OPS = 60
OP_GAP = 1e-3
#: a 40-page budget and a 4-run dirty bound: evictions and flushes
TIER = CacheConfig(capacity_bytes=10 << 10, write_back=True, dirty_max=4)

CELLS = ("timing", "data", "col", "oracle", "tier")


def _stats(stats) -> list:
    return [[key, value] for key, value in stats.counters.items()]


def _linear_ops(rng: random.Random) -> list:
    """``(kind, origin, extents)`` in the stored (row-major) frame."""
    ops = []
    for _ in range(OPS):
        kind = "write" if rng.random() < 0.35 else "read"
        shape = rng.random()
        if shape < 0.45:
            # row-run tile: one 1-page request per row
            rows = rng.choice((4, 8, 16))
            origin = (rng.randrange(0, ROWS - rows + 1), rng.choice((0, 64)))
            extents = (rows, 64)
        elif shape < 0.65 and kind == "read":
            # half-page offset: 2-page requests, partial useful bytes
            rows = rng.choice((4, 8))
            origin = (rng.randrange(0, ROWS - rows + 1), 32)
            extents = (rows, 64)
        else:
            # full width: one coalesced run, split above 4 KiB
            rows = rng.choice((4, 8, 16, 32))
            origin = (rng.randrange(0, ROWS - rows + 1), 0)
            extents = (rows, COLS)
        ops.append((kind, origin, extents))
    # reads that cover the trimmed rows
    ops.insert(3, ("read", (TRIMMED_ROWS[0], 0), (8, 64)))
    ops.insert(9, ("read", (TRIMMED_ROWS[0] - 4, 0), (16, COLS)))
    return ops


def _oracle_ops(rng: random.Random) -> list:
    ops = []
    for _ in range(OPS):
        kind = "write" if rng.random() < 0.35 else "read"
        origin = (rng.randrange(0, ROWS // ORACLE_TILE[0]) * ORACLE_TILE[0],
                  rng.randrange(0, COLS // ORACLE_TILE[1]) * ORACLE_TILE[1])
        ops.append((kind, origin, ORACLE_TILE))
    return ops


def _system(cell: str):
    store = cell in ("data", "col", "oracle")
    if cell == "oracle":
        return OracleSystem(PROFILE, store_data=True,
                            max_request_bytes=MAX_REQUEST_BYTES)
    return BaselineSystem(PROFILE, store_data=store,
                          max_request_bytes=MAX_REQUEST_BYTES,
                          cache=TIER if cell == "tier" else None)


def _state(system) -> list:
    ssd = system.ssd
    forward = sorted([lpn, *index_to_ppa(ppa, ssd.geometry)]
                     for lpn, ppa in ssd.ftl.map.items())
    reverse = ftl_reverse_rows(ssd.ftl.planes)
    planes = []
    for key in sorted(ssd.ftl.planes):
        plane = ssd.ftl.planes[key]
        blocks = [[b, [o is not None for o in s.owners], s.next_page,
                   s.erase_count]
                  for b, s in sorted(plane.blocks.items())]
        planes.append([list(key), plane.free_pages, plane.active_block,
                       list(plane.free_blocks), blocks])
    return [forward, reverse, planes]


def _watch_engine(engine, calls: list) -> None:
    """Record every engine call's per-request completions and totals."""
    for name in ("run_reads", "run_writes"):
        inner = getattr(engine, name)

        def wrapped(*args, _inner=inner, _name=name, **kwargs):
            result = _inner(*args, **kwargs)
            calls.append([_name, [t.hex() for t in result.completions],
                          result.end_time.hex(), result.useful_bytes,
                          result.fetched_bytes, _stats(result.stats)])
            return result
        setattr(engine, name, wrapped)


def run_cell(cell: str) -> dict:
    system = _system(cell)
    store = system.store_data
    col = cell == "col"
    rng = random.Random(53)
    # the stored (row-major) frame; a col dataset is its transpose
    mirror = np.frombuffer(rng.randbytes(ROWS * COLS * ELEMENT),
                           dtype=np.float32).reshape(ROWS, COLS).copy()
    calls: list = []
    _watch_engine(system.engine, calls)
    outcomes = []
    reads = []

    def record(run, now: float):
        try:
            result = run(now)
        except Exception as err:  # pinned: which op raised what
            outcomes.append("!" + type(err).__name__)
            return None
        outcomes.append([result.end_time.hex(), result.requests,
                         result.fetched_bytes, _stats(result.stats)])
        return result

    if cell == "oracle":
        record(lambda now: system.ingest(
            "m", (ROWS, COLS), ELEMENT, data=mirror, start_time=now,
            tile=ORACLE_TILE), 0.0)
        ops = _oracle_ops(rng)
    else:
        dims = (COLS, ROWS) if col else (ROWS, COLS)
        record(lambda now: system.ingest(
            "m", dims, ELEMENT, data=(mirror.T if col else mirror) if store
            else None, start_time=now, layout="col" if col else "row"), 0.0)
        pages_per_row = COLS * ELEMENT // PROFILE.geometry.page_size
        system.ssd.trim_lpns([row * pages_per_row for row in TRIMMED_ROWS])
        mirror[TRIMMED_ROWS[0]:TRIMMED_ROWS[-1] + 1, :64] = 0
        ops = _linear_ops(rng)
    for index, (kind, origin, extents) in enumerate(ops, start=1):
        now = index * OP_GAP
        # the request frame: a col dataset is addressed transposed
        at = origin[::-1] if col else origin
        size = extents[::-1] if col else extents
        if kind == "read":
            result = record(lambda now: system.read_tile(
                "m", at, size, start_time=now, with_data=store,
                dtype=np.float32), now)
            if result is not None and result.data is not None:
                want = mirror[origin[0]:origin[0] + extents[0],
                              origin[1]:origin[1] + extents[1]]
                got = result.data.T if col else result.data
                reads.append([hashlib.sha256(
                    np.ascontiguousarray(got).tobytes()).hexdigest(),
                    bool(np.array_equal(got.view(np.uint32),
                                        want.view(np.uint32)))])
            continue
        tile = None
        if store:
            tile = np.frombuffer(
                rng.randbytes(extents[0] * extents[1] * ELEMENT),
                dtype=np.float32).reshape(extents).copy()
        result = record(lambda now: system.write_tile(
            "m", at, size, data=(tile.T if col else tile) if store else None,
            start_time=now), now)
        if result is not None and store:
            mirror[origin[0]:origin[0] + extents[0],
                   origin[1]:origin[1] + extents[1]] = tile
    fence = system.flush_cache((len(ops) + 1) * OP_GAP)

    ssd = system.ssd
    flash = ssd.flash
    lines = list(flash.channel_lines)
    for row in flash.bank_lines:
        lines.extend(row)
    lines += [system.engine.controller_line, system.cpu.issue_line,
              *system.cpu.copy_lines.servers, system.link.line]
    report = system.cache_report()
    return {
        "calls": calls,
        "outcomes": outcomes,
        "reads": reads,
        "fence": fence.hex(),
        "cache_report": ({key: value.hex() if isinstance(value, float)
                          else value for key, value in report.items()}
                         if report is not None else None),
        "lines": [[line.name, line.free_at.hex(), line.busy_time.hex(),
                   line.ops] for line in lines],
        "flash_stats": _stats(flash.stats),
        "gc": {"relocated": ssd.gc.total_relocated,
               "erased": ssd.gc.total_erased},
        "state_sha256": hashlib.sha256(
            json.dumps(_state(system)).encode()).hexdigest(),
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden() -> dict:
    return _golden()


@pytest.mark.parametrize("cell", CELLS)
def test_engine_reads_bit_identical(cell, golden):
    want = golden[cell]
    got = run_cell(cell)
    assert got["gc"] == want["gc"]
    assert got["flash_stats"] == want["flash_stats"]
    assert got["outcomes"] == want["outcomes"]
    assert got["calls"] == want["calls"]
    assert got["reads"] == want["reads"]
    assert got["fence"] == want["fence"]
    assert got["cache_report"] == want["cache_report"]
    assert got["lines"] == want["lines"]
    assert got["state_sha256"] == want["state_sha256"]


def test_cells_exercise_their_paths(golden):
    """Each cell really drives what it is named for: FTL GC between the
    reads, row runs of one page, split full-width reads, unmapped
    pages, functional reads equal to the mirror, and (tier) hits,
    write-backs and a fence that flushes."""
    for cell in CELLS:
        want = golden[cell]
        assert want["gc"]["relocated"] > 0 and want["gc"]["erased"] > 0, cell
        assert all(isinstance(o, list) for o in want["outcomes"]), cell
        reads = [call for call in want["calls"] if call[0] == "run_reads"]
        assert reads, cell
        if cell in ("data", "col", "oracle"):
            assert want["reads"] and all(ok for _, ok in want["reads"]), cell
        if cell in ("timing", "data"):
            stats = [dict(map(tuple, call[5])) for call in reads]
            assert any(s.get("device_pages_unmapped") for s in stats), cell
            # a row-run tile of 16 one-page requests and a full-width
            # read split into 4 KiB requests
            assert any(len(call[1]) == 16 and call[4] == 16 * 256
                       for call in reads), cell
            assert any(call[4] == len(call[1]) * MAX_REQUEST_BYTES
                       and len(call[1]) > 1 for call in reads), cell
        if cell == "tier":
            report = want["cache_report"]
            assert report["hits"] > 0 and report["writebacks"] > 0
            assert report["evictions"] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps({cell: run_cell(cell)
                                       for cell in CELLS}, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
