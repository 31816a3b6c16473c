"""Exact-equality gates for the hot-path optimizations.

``golden_timings.json`` was captured at the pre-optimization commit:
ingest / per-fetch read / write end times (as ``float.hex()``) for the
four systems on a GEMM and a conv2d macro run. The cached translation,
batched page fan-out and inlined engine flows must reproduce every one
of those floats **bit for bit** — any drift here means an optimization
reordered the model's float operations and is a bug, not noise.

``pool_cache_timings.json`` pins the same scenario, in the same format,
on three more software-NDS cells: the GEMM sweep over a 4-device pool
(the cluster translation layer), an embedding-lookup sweep (many tiny
single-row reads), and that sweep behind an 8 MiB DRAM tier (the cache
lookup/insert path). Re-record it (only after a change meant to move
the model) with::

    PYTHONPATH=src python tests/perf/test_bit_identical.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.cache.config import CacheConfig
from repro.nvm import PAPER_PROTOTYPE
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)
from repro.workloads.conv2d import Conv2dWorkload
from repro.workloads.embedding import EmbeddingWorkload
from repro.workloads.gemm import GemmWorkload

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_timings.json").read_text())
POOL_CACHE_PATH = Path(__file__).parent / "pool_cache_timings.json"

SYSTEMS = (BaselineSystem, SoftwareNdsSystem, HardwareNdsSystem,
           OracleSystem)

WORKLOADS = {
    "gemm": lambda: GemmWorkload(n=512, tile=128, max_tiles=48),
    "conv2d": lambda: Conv2dWorkload(n=1024, tile_rows=128, tile_cols=256,
                                     max_tiles=48),
}



def _embedding():
    return EmbeddingWorkload(num_embeddings=4096, embedding_dim=64,
                             num_tables=1, batch_size=4, pooling_factor=4,
                             num_batches=6, alpha=1.05, weights_precision=4)


#: cell -> (workload factory, software-NDS system kwargs)
POOL_CACHE_CELLS = {
    "gemm/software-nds@4dev": (WORKLOADS["gemm"], {"devices": 4}),
    "embedding/software-nds": (_embedding, {}),
    "embedding-cached/software-nds": (
        _embedding, {"cache": CacheConfig(capacity_bytes=8 * 2**20)}),
}


def _run_one(workload, cls, **system_kwargs):
    """Ingest + full tile-plan read sweep + one write, timing-only —
    the exact scenario the golden file was captured from."""
    system = cls(PAPER_PROTOTYPE, store_data=False, **system_kwargs)
    plan = workload.tile_plan()
    ingest_result = None
    if isinstance(system, OracleSystem):
        shapes = {}
        for fetch in plan:
            shapes.setdefault(fetch.dataset, [])
            if fetch.extents not in shapes[fetch.dataset]:
                shapes[fetch.dataset].append(fetch.extents)
        for ds in workload.datasets():
            for shape in shapes.get(ds.name, [ds.dims]):
                ingest_result = system.ingest(ds.name, ds.dims,
                                              ds.element_size, tile=shape)
    else:
        for ds in workload.datasets():
            ingest_result = system.ingest(ds.name, ds.dims, ds.element_size)
    ingest_end = ingest_result.end_time
    system.reset_time()
    read_ends = [system.read_tile(f.dataset, f.origin, f.extents).end_time
                 for f in plan]
    system.reset_time()
    first = plan[0]
    write_end = system.write_tile(first.dataset, first.origin,
                                  first.extents).end_time
    return ingest_end, read_ends, write_end


@pytest.mark.parametrize("wl_name", sorted(WORKLOADS))
@pytest.mark.parametrize("cls", SYSTEMS, ids=[c.name for c in SYSTEMS])
def test_simulated_timings_bit_identical_to_pre_pr(wl_name, cls):
    expected = GOLDEN[f"{wl_name}/{cls.name}"]
    ingest_end, read_ends, write_end = _run_one(WORKLOADS[wl_name](), cls)
    assert ingest_end.hex() == expected["ingest_end"]
    assert write_end.hex() == expected["write_end"]
    assert len(read_ends) == len(expected["read_ends"])
    for i, (got, want) in enumerate(zip(read_ends, expected["read_ends"])):
        assert got.hex() == want, f"fetch {i}: {got.hex()} != {want}"


@pytest.mark.parametrize("wl_name", sorted(WORKLOADS))
@pytest.mark.parametrize("cls", SYSTEMS, ids=[c.name for c in SYSTEMS])
def test_devices_one_bit_identical_to_single_device(wl_name, cls):
    """``devices=1`` must bypass the cluster layer entirely: identical
    floats to the plain single-device construction (and therefore to
    the pre-pool goldens)."""
    expected = GOLDEN[f"{wl_name}/{cls.name}"]
    ingest_end, read_ends, write_end = _run_one(WORKLOADS[wl_name](), cls,
                                                devices=1)
    assert ingest_end.hex() == expected["ingest_end"]
    assert write_end.hex() == expected["write_end"]
    assert [e.hex() for e in read_ends] == expected["read_ends"]


@pytest.mark.parametrize("cls", SYSTEMS, ids=[c.name for c in SYSTEMS])
def test_translation_memo_off_agrees(cls):
    """The translation memo is invisible: with its cache limit at 0 the
    same scenario must give the same floats."""
    from repro.core.translator import (set_translation_cache_limit,
                                       translation_cache_limit)

    memo = _run_one(GemmWorkload(n=256, tile=128, max_tiles=12), cls)
    saved = translation_cache_limit()
    set_translation_cache_limit(0)
    try:
        plain = _run_one(GemmWorkload(n=256, tile=128, max_tiles=12), cls)
    finally:
        set_translation_cache_limit(saved)
    assert memo[0].hex() == plain[0].hex()
    assert memo[2].hex() == plain[2].hex()
    assert [e.hex() for e in memo[1]] == [e.hex() for e in plain[1]]


def _pool_cache_cell(cell):
    factory, system_kwargs = POOL_CACHE_CELLS[cell]
    ingest_end, read_ends, write_end = _run_one(
        factory(), SoftwareNdsSystem, **system_kwargs)
    return {"ingest_end": ingest_end.hex(),
            "read_ends": [e.hex() for e in read_ends],
            "write_end": write_end.hex()}


@pytest.mark.parametrize("cell", sorted(POOL_CACHE_CELLS))
def test_pool_and_cache_cells_bit_identical(cell):
    expected = json.loads(POOL_CACHE_PATH.read_text())[cell]
    got = _pool_cache_cell(cell)
    assert got["ingest_end"] == expected["ingest_end"]
    assert got["write_end"] == expected["write_end"]
    assert len(got["read_ends"]) == len(expected["read_ends"])
    for i, (have, want) in enumerate(zip(got["read_ends"],
                                         expected["read_ends"])):
        assert have == want, f"fetch {i}: {have} != {want}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    POOL_CACHE_PATH.write_text(json.dumps(
        {cell: _pool_cache_cell(cell) for cell in sorted(POOL_CACHE_CELLS)},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {POOL_CACHE_PATH}")
