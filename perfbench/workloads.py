"""The benchmark's workloads: inputs, op streams and read-back checks.

Every workload runs the simulator with default knobs only (no
``fast_path``, ``batch_*``, ``columnar`` or ``parallel=`` settings), in
one process, through public entry points. A workload is sized by
*units* — tile fetches for the sweeps, logical requests for serving —
so a run of ``--seconds S`` executes a fixed amount of work
(``S * units_per_second`` units) and two commits measured with the
same arguments do identical simulated work.

``nds-sweep``
    Closed loop, one caller, :class:`SoftwareNdsSystem` on one GC-dense
    1 GiB device, GEMM A/B at 10240² fp32 (78 % full), the 256² blocked
    tile plan from a seeded output block, one fetched tile in four
    written back (chosen by seed).
``baseline-sweep``
    The same device and matrices on :class:`BaselineSystem`. A baseline
    tile costs ~17x a software-NDS tile on the host, so the plan is
    shorter and every fetched tile is written back, which keeps a run's
    write tail (p99) over > 1000 writes.
``embed-serve``
    Open loop, Poisson arrivals at a fixed simulated rate below the
    saturation knee, :class:`SoftwareNdsSystem` over a 4-device pool
    with an 8 MiB LRU write-back DRAM tier per device, serving
    :class:`EmbeddingWorkload` lookups with a 25 % update share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable, Dict, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.nvm import PAPER_PROTOTYPE
from repro.nvm.geometry import Geometry
from repro.systems import BaselineSystem, SoftwareNdsSystem
from repro.traffic.arrivals import PoissonProcess
from repro.traffic.injector import OpenLoopInjector, TrafficStream
from repro.workloads.base import TileFetch
from repro.workloads.embedding import EmbeddingWorkload
from repro.workloads.gemm import GemmWorkload

__all__ = ["Workload", "WORKLOADS", "members"]

#: PAPER_PROTOTYPE timing on a GC-dense geometry:
#: 32 ch x 8 banks x 16 blocks x 64 pages x 4 KiB = 1 GiB
GC_DENSE = replace(PAPER_PROTOTYPE, name="paper-prototype-gc-dense-1g",
                   geometry=Geometry(channels=32, banks_per_channel=8,
                                     blocks_per_bank=16, pages_per_block=64,
                                     page_size=4096))
#: the read-back copy of GC_DENSE: 16 blocks per bank and ~80 % fill
#: after ingest like the full device, 512 B pages so that baseline
#: tile rows (128 fp32) stay page aligned for functional writes
#: (8 ch x 4 banks x 16 blocks x 10 pages x 512 B = 2.5 MiB, 512²)
GC_DENSE_SHRUNK = replace(PAPER_PROTOTYPE, name="paper-prototype-shrunk",
                          geometry=Geometry(channels=8, banks_per_channel=4,
                                            blocks_per_bank=16,
                                            pages_per_block=10,
                                            page_size=512))
GEMM_N, TILE = 10240, 256
GEMM_N_SHRUNK, TILE_SHRUNK = 512, 128

#: simulated arrival rate of embed-serve (requests/s); the saturation
#: knee of this configuration sits near 2.4k req/s
SERVE_RATE = 1200.0
SERVE_TABLE_ROWS = 256 * 1024
SERVE_TABLE_ROWS_SHRUNK = 4096
SERVE_DEVICES = 4
SERVE_CACHE = CacheConfig(capacity_bytes=8 << 20, policy="lru",
                          write_back=True)


def members(system) -> Tuple:
    """The single-device systems behind ``system`` (pool members, or
    the system itself)."""
    cluster = system.cluster
    if cluster is None:
        return (system,)
    return tuple(handle.system for handle in cluster.pool.devices)


# ----------------------------------------------------------------------
# tile sweeps (closed loop, one caller)
# ----------------------------------------------------------------------
def _build_sweep(cls, profile, n: int, data: Dict[str, np.ndarray] = None):
    system = cls(profile, store_data=data is not None)
    for ds in GemmWorkload(n=n, tile=n).datasets():
        system.ingest(ds.name, ds.dims, ds.element_size,
                      data=None if data is None else data[ds.name])
    return system


def _blocked_plan(n: int, tile: int, first: int):
    """:meth:`GemmWorkload.tile_plan`'s blocked order — for each output
    block ``(i, j)`` in row-major order, the ``(i, k)``/``(k, j)`` pairs
    — starting at output block number ``first`` and wrapping around,
    generated lazily."""
    blocks = n // tile
    for index in range(first, first + blocks * blocks):
        i, j = divmod(index % (blocks * blocks), blocks)
        for k in range(blocks):
            yield TileFetch("A", (i * tile, k * tile), (tile, tile))
            yield TileFetch("B", (k * tile, j * tile), (tile, tile))


def _sweep_groups(n: int, tile: int, fetches: int, write_every: int,
                  seed: int):
    """``fetches`` fetches of the blocked plan from a seeded output
    block, in groups of ``write_every``; yields ``(fetch, write_back)``
    with one seeded write-back per group."""
    rng = random.Random(seed)
    first = rng.randrange((n // tile) ** 2)
    plan = islice(_blocked_plan(n, tile, first), fetches)
    while True:
        group = list(islice(plan, write_every))
        if not group:
            return
        chosen = rng.randrange(len(group))
        for index, fetch in enumerate(group):
            yield fetch, index == chosen


def _failure(what, err: Exception) -> int:
    """Report one raising op (every raising op is a failure, and the
    run goes on); returns 1 for the failure count."""
    print(f"perfbench op failed: {what}: {err!r}")
    return 1


def _run_sweep(system, seed: int, fetches: int, write_every: int) -> dict:
    failed = 0
    for fetch, write_back in _sweep_groups(GEMM_N, TILE, fetches,
                                           write_every, seed):
        try:
            system.read_tile(fetch.dataset, fetch.origin, fetch.extents)
            if write_back:
                system.write_tile(fetch.dataset, fetch.origin,
                                  fetch.extents)
        except Exception as err:  # noqa: BLE001
            failed += _failure(fetch, err)
    return {"failed": failed}


def _readback_sweep(cls, seed: int, write_every: int) -> Tuple[int, int]:
    """Functional copy of a sweep: every fetched tile is compared with
    the numpy reference, written-back tiles carry fresh values, and a
    final whole-matrix read checks what GC relocated."""
    n = GEMM_N_SHRUNK
    rng = np.random.default_rng(seed)
    reference = {name: rng.standard_normal((n, n), dtype=np.float32)
                 for name in ("A", "B")}
    system = _build_sweep(cls, GC_DENSE_SHRUNK, n,
                          data={k: v.copy() for k, v in reference.items()})
    attempted = failed = 0
    fetches = (n // TILE_SHRUNK) ** 3 * 2
    for fetch, write_back in _sweep_groups(n, TILE_SHRUNK, fetches,
                                           write_every, seed):
        rows = slice(fetch.origin[0], fetch.origin[0] + fetch.extents[0])
        cols = slice(fetch.origin[1], fetch.origin[1] + fetch.extents[1])
        attempted += 1
        failed += not _read_matches(system, fetch.dataset, fetch.origin,
                                    fetch.extents,
                                    reference[fetch.dataset][rows, cols])
        if write_back:
            fresh = rng.standard_normal(fetch.extents, dtype=np.float32)
            attempted += 1
            try:
                system.write_tile(fetch.dataset, fetch.origin,
                                  fetch.extents, data=fresh)
                reference[fetch.dataset][rows, cols] = fresh
            except Exception as err:  # noqa: BLE001
                failed += _failure(fetch, err)
    for name, matrix in reference.items():
        attempted += 1
        failed += not _read_matches(system, name, (0, 0), (n, n), matrix)
    return attempted, failed


def _read_matches(system, dataset: str, origin, extents,
                  expected: np.ndarray) -> bool:
    try:
        got = system.read_tile(dataset, origin, extents, with_data=True,
                               dtype=np.float32).data
    except Exception as err:  # noqa: BLE001
        return not _failure((dataset, origin, extents), err)
    return got is not None and np.array_equal(got, expected)


# ----------------------------------------------------------------------
# embedding serving (open loop)
# ----------------------------------------------------------------------
def _embedding(seed: int, rows: int) -> EmbeddingWorkload:
    return EmbeddingWorkload(num_embeddings=rows, embedding_dim=64,
                             num_tables=2, pooling_factor=8, alpha=1.05,
                             weights_precision=4, update_fraction=0.25,
                             seed=seed)


def _build_serve(rows: int = SERVE_TABLE_ROWS,
                 data: Dict[str, np.ndarray] = None):
    system = SoftwareNdsSystem(PAPER_PROTOTYPE, store_data=data is not None,
                               devices=SERVE_DEVICES, cache=SERVE_CACHE)
    for ds in _embedding(0, rows).datasets():
        system.ingest(ds.name, ds.dims, ds.element_size,
                      data=None if data is None else data[ds.name])
    return system


def _run_serve(system, seed: int, requests: int) -> dict:
    stream = TrafficStream("serve", PoissonProcess(SERVE_RATE, seed=seed),
                           _embedding(seed, SERVE_TABLE_ROWS)
                           .request_factory())
    result = OpenLoopInjector(system, [stream],
                              horizon=requests / SERVE_RATE).run()
    report = result.streams["serve"]
    return {"failed": report.failed, "offered": report.offered,
            "shed": report.shed, "goodput_rps": result.goodput_rps.hex()}


def _readback_serve(seed: int, requests: int = 48) -> Tuple[int, int]:
    """Functional copy of embed-serve: every looked-up row and every
    pooled (summed) bag is compared with numpy; update requests write
    ``row + 1`` through the write-back tier, and after a flush fence
    every updated row is read back again."""
    workload = _embedding(seed, SERVE_TABLE_ROWS_SHRUNK)
    reference = workload.generate(np.random.default_rng(seed))
    system = _build_serve(SERVE_TABLE_ROWS_SHRUNK,
                          data={k: v.copy() for k, v in reference.items()})
    make_ops = workload.request_factory()
    attempted = failed = 0
    updated = set()
    for seq in range(requests):
        pooled: Dict[str, np.ndarray] = {}
        expected: Dict[str, np.ndarray] = {}
        for op in make_ops(seq, 0.0):
            row = op.origin[0]
            attempted += 1
            if op.kind == "write":
                fresh = reference[op.dataset][row] + np.float32(1)
                try:
                    system.write_tile(op.dataset, op.origin, op.extents,
                                      data=fresh.reshape(op.extents))
                    reference[op.dataset][row] = fresh
                    updated.add((op.dataset, row))
                except Exception as err:  # noqa: BLE001
                    failed += _failure(op.label, err)
                continue
            want = reference[op.dataset][row]
            try:
                got = system.read_tile(op.dataset, op.origin, op.extents,
                                       with_data=True,
                                       dtype=np.float32).data[0]
            except Exception as err:  # noqa: BLE001
                failed += _failure(op.label, err)
                continue
            failed += not np.array_equal(got, want)
            pooled[op.dataset] = pooled.get(op.dataset, 0) + got
            expected[op.dataset] = expected.get(op.dataset, 0) + want
        for name in expected:
            attempted += 1
            failed += not np.array_equal(pooled[name], expected[name])
    system.flush_cache()
    for name, row in sorted(updated):
        attempted += 1
        failed += not _read_matches(system, name, (row, 0), (1, 64),
                                    reference[name][row:row + 1])
    return attempted, failed


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    why: str
    #: construct the system and ingest the datasets (the timed set-up)
    build: Callable[[], object]
    #: ``run(system, seed, units) -> outcome`` executes the op stream
    run: Callable[[object, int, int], dict]
    #: work units per second of ``--seconds`` (calibrated roughly: at
    #: 15 s the timed phase takes 10-20 s on a 2-vCPU x86-64 host)
    units_per_second: float
    #: units the golden fingerprint covers (a prefix of any run)
    canary_units: int
    #: ``readback(seed) -> (attempted, failed)`` on a shrunk
    #: functional copy of the configuration
    readback: Callable[[int], Tuple[int, int]]
    #: the seed the goldens and the tuning runs use
    golden_seed: int = 1
    #: recorded for later claims; never used while tuning
    heldout_seed: int = 1009

    def units(self, seconds: float) -> int:
        return max(1, int(round(seconds * self.units_per_second)))


WORKLOADS: Dict[str, Workload] = {
    "nds-sweep": Workload(
        name="nds-sweep",
        why="software NDS GEMM tile sweep: multi-block translation, "
            "STL, allocator and foreground STL GC",
        build=lambda: _build_sweep(SoftwareNdsSystem, GC_DENSE, GEMM_N),
        run=lambda system, seed, units: _run_sweep(system, seed, units, 4),
        units_per_second=880.0,
        canary_units=3000,
        readback=lambda seed: _readback_sweep(SoftwareNdsSystem, seed, 4),
    ),
    "baseline-sweep": Workload(
        name="baseline-sweep",
        why="striped-LBA baseline GEMM sweep: row-run fan-out through the "
            "host I/O engine, FTL map and FTL GC",
        build=lambda: _build_sweep(BaselineSystem, GC_DENSE, GEMM_N),
        run=lambda system, seed, units: _run_sweep(system, seed, units, 1),
        units_per_second=125.0,
        canary_units=600,
        readback=lambda seed: _readback_sweep(BaselineSystem, seed, 1),
    ),
    "embed-serve": Workload(
        name="embed-serve",
        why="open-loop embedding serving on a cached 4-device pool: "
            "per-request injector, scheduler, tier and cluster overhead",
        build=_build_serve,
        run=_run_serve,
        units_per_second=60.0,
        canary_units=100,
        readback=_readback_serve,
    ),
}
