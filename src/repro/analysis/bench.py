"""Wall-clock hot-path benchmark suite.

Simulated time is free — the model is analytic — so the only cost that
matters for iterating on experiments is *wall-clock* time spent in the
Python hot path: region translation, page fan-out, and per-request
Timeline bookkeeping. This module runs the same GEMM / conv2d macro
scenario on all four systems and reports, per ``system × workload``:

- ``wall_s``        – wall-clock seconds for the whole scenario,
- ``ops``           – simulated operations executed (ingest + tile
  reads + one tile write),
- ``ops_per_s``     – wall-clock throughput,
- ``us_wall_per_op`` – microseconds of wall time per simulated op.

Next to the wall numbers it records a ``simulated`` section: the
deterministic model outputs (ingest / last read / write end times and a
sum over every read completion, all as ``float.hex()``). Two runs of
the benchmark must produce **byte-identical** simulated sections — CI's
``bench-smoke`` job asserts exactly that — while the wall numbers are
the ones allowed to move.

Run it via ``python -m repro bench`` or
``python benchmarks/bench_hotpath.py``.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.nvm import PAPER_PROTOTYPE
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)
from repro.workloads.conv2d import Conv2dWorkload
from repro.workloads.gemm import GemmWorkload

__all__ = ["BENCH_SYSTEMS", "bench_workloads", "run_scenario",
           "run_hotpath_bench", "format_bench", "bench_json"]

BENCH_SYSTEMS = (BaselineSystem, SoftwareNdsSystem, HardwareNdsSystem,
                 OracleSystem)


def bench_workloads(max_tiles: int = 48) -> Dict[str, Callable[[], object]]:
    """The macro scenarios: a GEMM tile sweep and a conv2d halo sweep."""
    return {
        "gemm": lambda: GemmWorkload(n=512, tile=128, max_tiles=max_tiles),
        "conv2d": lambda: Conv2dWorkload(n=1024, tile_rows=128,
                                         tile_cols=256,
                                         max_tiles=max_tiles),
    }


def run_scenario(cls, workload, devices: int = 1,
                 cache=None) -> Tuple[int, Dict[str, str]]:
    """Ingest every dataset, read the full tile plan, write one tile.

    Returns ``(ops, simulated)`` where ``simulated`` holds the
    deterministic end times as ``float.hex()`` strings. Wall time is
    measured by the caller around this function. ``devices > 1`` runs
    the scenario over a device pool (the cluster-layer hot path);
    ``cache=CacheConfig(...)`` puts the host DRAM tier in the hot path
    (lookup/insert bookkeeping on every access).
    """
    kwargs = {} if cache is None else {"cache": cache}
    system = (cls(PAPER_PROTOTYPE, store_data=False, **kwargs)
              if devices <= 1
              else cls(PAPER_PROTOTYPE, store_data=False, devices=devices,
                       **kwargs))
    plan = workload.tile_plan()
    ops = 0
    ingest_result = None
    if isinstance(system, OracleSystem):
        shapes: Dict[str, list] = {}
        for fetch in plan:
            shapes.setdefault(fetch.dataset, [])
            if fetch.extents not in shapes[fetch.dataset]:
                shapes[fetch.dataset].append(fetch.extents)
        for ds in workload.datasets():
            for shape in shapes.get(ds.name, [ds.dims]):
                ingest_result = system.ingest(ds.name, ds.dims,
                                              ds.element_size, tile=shape)
                ops += 1
    else:
        for ds in workload.datasets():
            ingest_result = system.ingest(ds.name, ds.dims, ds.element_size)
            ops += 1
    ingest_end = ingest_result.end_time
    system.reset_time()
    read_sum = 0.0
    last_read = 0.0
    for fetch in plan:
        result = system.read_tile(fetch.dataset, fetch.origin, fetch.extents)
        last_read = result.end_time
        read_sum += result.end_time
        ops += 1
    system.reset_time()
    first = plan[0]
    write_end = system.write_tile(first.dataset, first.origin,
                                  first.extents).end_time
    ops += 1
    simulated = {
        "ingest_end": ingest_end.hex(),
        "last_read_end": last_read.hex(),
        "read_end_sum": read_sum.hex(),
        "write_end": write_end.hex(),
        "reads": len(plan),
    }
    return ops, simulated


def run_hotpath_bench(max_tiles: int = 48, repeats: int = 1,
                      systems: Optional[Sequence] = None) -> Dict:
    """Run every ``system × workload`` scenario and time it.

    With ``repeats > 1`` each cell keeps the *fastest* wall time (the
    usual benchmarking practice: minimum wall time has the least noise)
    while asserting the simulated section never changes between
    repeats.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    chosen = tuple(systems) if systems is not None else BENCH_SYSTEMS
    wall: Dict[str, Dict[str, float]] = {}
    simulated: Dict[str, Dict[str, str]] = {}
    cells = [{"key": f"{wl_name}/{cls.name}", "factory": factory,
              "cls": cls}
             for wl_name, factory in bench_workloads(max_tiles).items()
             for cls in chosen]
    if SoftwareNdsSystem in chosen:
        gemm = bench_workloads(max_tiles)["gemm"]
        # the cluster translation layer's hot path
        cells.append({"key": "gemm/software-nds@4dev", "factory": gemm,
                      "cls": SoftwareNdsSystem, "devices": 4})

        # one serving cell: many tiny single-row reads (embedding
        # lookups) stress per-request translation instead of fan-out
        def embedding():
            from repro.workloads.embedding import EmbeddingWorkload
            return EmbeddingWorkload(num_embeddings=4096, embedding_dim=64,
                                     num_tables=1, batch_size=4,
                                     pooling_factor=4, num_batches=6,
                                     alpha=1.05, weights_precision=4)
        cells.append({"key": "embedding/software-nds",
                      "factory": embedding, "cls": SoftwareNdsSystem})
        # the same serving scenario behind a hot DRAM tier: exercises
        # the cache lookup/insert bookkeeping on the wall-clock path
        from repro.cache.config import CacheConfig
        cells.append({"key": "embedding-cached/software-nds",
                      "factory": embedding, "cls": SoftwareNdsSystem,
                      "cache": CacheConfig(capacity_bytes=8 * 2**20)})
    for cell in cells:
        key = cell["key"]
        best = None
        ops = 0
        for _ in range(repeats):
            workload = cell["factory"]()
            t0 = time.perf_counter()
            ops, sim = run_scenario(
                cell["cls"], workload, devices=cell.get("devices", 1),
                cache=cell.get("cache"))
            elapsed = time.perf_counter() - t0
            prior = simulated.get(key)
            if prior is not None and prior != sim:
                raise AssertionError(
                    f"non-deterministic simulated output for {key}")
            simulated[key] = sim
            if best is None or elapsed < best:
                best = elapsed
        wall[key] = {
            "wall_s": round(best, 6),
            "ops": ops,
            "ops_per_s": round(ops / best, 1) if best > 0 else 0.0,
            "us_wall_per_op": round(best / ops * 1e6, 2),
        }
    return {
        "config": {"max_tiles": max_tiles, "repeats": repeats,
                   "systems": [cls.name for cls in chosen],
                   "workloads": sorted(bench_workloads(max_tiles))},
        "simulated": simulated,
        "wall": wall,
    }


def format_bench(bench: Dict) -> str:
    """Human-readable table of the wall section."""
    from repro.analysis.report import format_table
    rows = []
    for key in sorted(bench["wall"]):
        cell = bench["wall"][key]
        rows.append([key, f"{cell['wall_s']:.3f}", str(cell["ops"]),
                     f"{cell['ops_per_s']:.0f}",
                     f"{cell['us_wall_per_op']:.1f}"])
    table = format_table(
        ["workload/system", "wall (s)", "ops", "ops/s", "us wall/op"],
        rows, title="Hot-path wall-clock benchmark")
    return table


def bench_json(bench: Dict) -> str:
    """Byte-stable JSON rendering (sorted keys, fixed separators)."""
    return json.dumps(bench, indent=1, sort_keys=True) + "\n"
