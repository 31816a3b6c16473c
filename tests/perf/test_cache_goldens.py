"""Exact-equality gates for the DRAM-tier paths of all four systems.

``cache_goldens.json`` pins, bit for bit, what a cached system does on
a seeded mix of 16 x 16 reads and writes. The cells cover every system
(baseline, software NDS, hardware NDS, oracle) under every tier mode:

* ``wt``: write-through;
* ``wb``: write-back with a small ``dirty_max`` (dirty-bound flushes);
* ``pf2``: write-through with ``prefetch=2``;
* ``wb_pf1_clock``: write-back, ``prefetch=1`` and the clock policy;

each timing-only and with ``store_data=True``, on one device and on a
two-device pool. The byte budget is small, so evictions (and under
write-back, eviction flushes) run too.

Per cell it pins every op's end time (``float.hex()``, or
``!ErrorName`` when the op raised, such as the baseline's refusal of a
functional write that is not page aligned), its request count and
fetched bytes; the ``flush_cache()`` fence time; ``cache_report()``;
the scheduler's stream report; and, for the NDS systems with
``store_data=True``, a digest of every read's bytes and whether the
final read-back equals a numpy mirror of the writes.

Re-record (only after a change meant to move the model) with::

    PYTHONPATH=src python tests/perf/test_cache_goldens.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.nvm import TINY_TEST
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)

GOLDEN_PATH = Path(__file__).parent / "cache_goldens.json"

SYSTEMS = {"baseline": BaselineSystem, "software": SoftwareNdsSystem,
           "hardware": HardwareNdsSystem, "oracle": OracleSystem}
#: a 1 KiB tile against a 6 KiB budget: the working set does not fit
CACHES = {
    "wt": CacheConfig(capacity_bytes=6 << 10),
    "wb": CacheConfig(capacity_bytes=6 << 10, write_back=True, dirty_max=3),
    "pf2": CacheConfig(capacity_bytes=6 << 10, prefetch=2),
    "wb_pf1_clock": CacheConfig(capacity_bytes=6 << 10, write_back=True,
                                dirty_max=4, prefetch=1, policy="clock"),
}
MODES = ("timing", "data")
DEVICES = (1, 2)

DIMS, TILE, ELEMENT = (64, 64), (16, 16), 4
OPS = 80
#: ops are issued this far apart in model time, so some overlap
OP_GAP = 40e-6
STREAMS = ("a", "b")

CELLS = [f"{system}-{cache}-{mode}-d{devices}"
         for system in SYSTEMS for cache in CACHES for mode in MODES
         for devices in DEVICES]


def _pin(value):
    """JSON-ready copy with every float as ``float.hex()``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _pin(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pin(item) for item in value]
    return value


def _ops(rng: random.Random, aligned: bool) -> list:
    """``(kind, origin)`` of every op after the ingest. The oracle
    needs tile-aligned origins; the others use an 8-element grid, so
    tiles partially overlap each other's regions."""
    step = TILE[0] if aligned else 8
    ops = []
    for _ in range(OPS):
        kind = "write" if rng.random() < 0.4 else "read"
        origin = tuple(rng.randrange(0, (d - t) // step + 1) * step
                       for d, t in zip(DIMS, TILE))
        ops.append((kind, origin))
    return ops


def run_cell(cell: str) -> dict:
    system_name, cache_name, mode, devices = cell.rsplit("-", 3)
    cls = SYSTEMS[system_name]
    store = mode == "data"
    nds = cls in (SoftwareNdsSystem, HardwareNdsSystem)
    system = cls(TINY_TEST, store_data=store, cache=CACHES[cache_name],
                 devices=int(devices[1:]))
    rng = random.Random(47)
    mirror = None
    if store:
        mirror = np.frombuffer(rng.randbytes(DIMS[0] * DIMS[1] * ELEMENT),
                               dtype=np.int32).reshape(DIMS).copy()
    params = {"tile": TILE} if cls is OracleSystem else {}
    outcomes = []
    read_digests = []

    def record(run, now: float):
        try:
            result = run(now)
        except Exception as err:  # pinned: which op raised what
            outcomes.append("!" + type(err).__name__)
            return None
        outcomes.append([result.end_time.hex(), result.requests,
                         result.fetched_bytes])
        return result

    record(lambda now: system.ingest("m", DIMS, ELEMENT, data=mirror,
                                     start_time=now, **params), 0.0)
    for index, (kind, origin) in enumerate(
            _ops(rng, aligned=cls is OracleSystem), start=1):
        now = index * OP_GAP
        stream = STREAMS[index % 2]
        if kind == "read":
            result = record(lambda now: system.read_tile(
                "m", origin, TILE, start_time=now, with_data=store and nds,
                dtype=np.int32, stream=stream), now)
            if result is not None and result.data is not None:
                read_digests.append(hashlib.sha256(
                    result.data.tobytes()).hexdigest())
            continue
        tile = None
        if store:
            tile = np.frombuffer(rng.randbytes(TILE[0] * TILE[1] * ELEMENT),
                                 dtype=np.int32).reshape(TILE).copy()
        result = record(lambda now: system.write_tile(
            "m", origin, TILE, data=tile, start_time=now, stream=stream), now)
        if result is not None and store:
            mirror[origin[0]:origin[0] + TILE[0],
                   origin[1]:origin[1] + TILE[1]] = tile
    fence = system.flush_cache((OPS + 1) * OP_GAP)
    readback = None
    if store and nds:
        back = system.read_tile("m", (0, 0), DIMS, start_time=fence,
                                with_data=True, dtype=np.int32)
        readback = bool(np.array_equal(back.data, mirror))
    return {
        "outcomes": outcomes,
        "fence": fence.hex(),
        "cache_report": _pin(system.cache_report()),
        "stream_report": _pin(system.scheduler.stream_report()),
        "read_digests": read_digests,
        "readback_equal": readback,
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden() -> dict:
    return _golden()


@pytest.mark.parametrize("cell", CELLS)
def test_cached_system_bit_identical(cell, golden):
    want = golden[cell]
    got = run_cell(cell)
    assert got["outcomes"] == want["outcomes"]
    assert got["fence"] == want["fence"]
    assert got["cache_report"] == want["cache_report"]
    assert got["stream_report"] == want["stream_report"]
    assert got["read_digests"] == want["read_digests"]
    assert got["readback_equal"] == want["readback_equal"]


def test_cells_exercise_the_tier(golden):
    """The cells really drive what they are named for: hits, evictions,
    write-back flushes, prefetches, the baseline's functional-write
    refusal, and (NDS) a read-back equal to the mirror."""
    for cell in CELLS:
        want = golden[cell]
        report = want["cache_report"]
        assert report["hits"] > 0 and report["evictions"] > 0, cell
        refused = cell.startswith("baseline") and "-data-" in cell
        if "-wb" in cell and not refused:
            assert report["writebacks"] > 0, cell
        if "pf" in cell and not cell.startswith(("baseline", "oracle")):
            assert report["prefetch_issued"] > 0, cell
        if refused:
            assert "!NotImplementedError" in want["outcomes"], cell
        if cell.startswith(("software", "hardware")) and "-data-" in cell:
            assert want["readback_equal"] is True, cell
            assert want["read_digests"], cell


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    # one cell per line
    GOLDEN_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(cell)}: {json.dumps(run_cell(cell))}"
        for cell in CELLS) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
