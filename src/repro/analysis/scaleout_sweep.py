"""Device-count scaling sweep over the cluster translation layer.

Runs the same tiled read workload against pools of 1/2/4/8 simulated
SSDs and reports aggregate goodput (useful bytes / makespan) per
(system, device count) cell — the scale-out argument for the SALSA-style
host translation layer: declustered extents put independent tile reads
on independent devices, so goodput grows with the pool.

Two capacity modes keep the comparison honest:

* ``"fixed-per-device"`` — every pool member is the full profile; an
  8-device pool has 8× the capacity (the scale-*out* story);
* ``"fixed-total"`` — each member holds ``1/N`` of the blocks via
  :meth:`~repro.nvm.profiles.DeviceProfile.scaled_capacity`, so total
  capacity is constant and only the parallelism varies (the
  declustering story).

Everything is deterministic and the JSON rendering is byte-stable
(sorted keys, fixed separators) — the CI ``scaleout-determinism`` job
runs the sweep twice and diffs the files.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.nvm.profiles import CONSUMER_SSD, DeviceProfile
from repro.runtime.tileop import TileOp
from repro.workloads.base import TileFetch, Workload, WorkloadDataset

__all__ = ["DEVICE_COUNTS", "CAPACITY_MODES", "ScanWorkload", "run_cell",
           "run_co_cell", "scaleout_sweep", "sweep_json", "format_sweep"]

DEVICE_COUNTS = (1, 2, 4, 8)
CAPACITY_MODES = ("fixed-per-device", "fixed-total")

_SWEEP_SYSTEMS = ("baseline", "software-nds", "hardware-nds",
                  "software-oracle")


class ScanWorkload(Workload):
    """Full-matrix tile scan with uniform row coverage.

    Reads every ``tile``×``tile`` tile of one ``n``×``n`` matrix
    exactly once, iterating *down the columns* so consecutive fetches
    land in different row bands — and therefore, once the matrix is
    declustered, on different devices. GEMM's inner-product order keeps
    its A-tile reads pinned to one row band, which hides pool
    parallelism; the scan is the fair scale-out probe.
    """

    name = "scan"
    category = "microbenchmark"
    data_dim_label = "2D"
    kernel_dim_label = "2D"

    def __init__(self, n: int = 1024, tile: int = 128,
                 element_size: int = 4, name: str = "scan",
                 dataset: str = "S") -> None:
        if n % tile != 0:
            raise ValueError("tile must evenly divide n")
        self.n = n
        self.tile = tile
        self.element_size = element_size
        self.name = name
        self.dataset_name = dataset

    def datasets(self) -> List[WorkloadDataset]:
        return [WorkloadDataset(self.dataset_name, (self.n, self.n),
                                self.element_size)]

    def tile_plan(self) -> List[TileFetch]:
        grid = self.n // self.tile
        return [TileFetch(self.dataset_name, (i * self.tile, j * self.tile),
                          (self.tile, self.tile))
                for j in range(grid) for i in range(grid)]

    def kernel_time(self, kernels, fetch) -> float:
        return 0.0


def _profile_for(profile: DeviceProfile, devices: int, mode: str):
    if mode == "fixed-per-device":
        return profile
    if mode == "fixed-total":
        return profile.scaled_capacity(1.0 / devices)
    raise ValueError(f"unknown capacity mode {mode!r}; pick from "
                     f"{CAPACITY_MODES}")


def run_cell(system_name: str, devices: int,
             profile: DeviceProfile = CONSUMER_SSD,
             mode: str = "fixed-per-device",
             workload=None, queue_depth: int = 8) -> Dict[str, object]:
    """One sweep cell: run ``workload`` on ``system_name`` over a
    ``devices``-member pool and measure aggregate goodput."""
    from repro.obs.report import SYSTEM_FACTORIES
    from repro.workloads.runner import ingest_datasets

    factory = SYSTEM_FACTORIES.get(system_name)
    if factory is None:
        raise ValueError(f"unknown system {system_name!r}; pick from "
                         f"{sorted(SYSTEM_FACTORIES)}")
    if workload is None:
        workload = ScanWorkload()
    member_profile = _profile_for(profile, devices, mode)
    system = (factory(member_profile) if devices <= 1
              else factory(member_profile, devices=devices))
    ingest_datasets([workload], system)
    system.reset_time()
    system._reset_runtime()

    scheduler = system.scheduler
    scheduler.stream(workload.name, queue_depth)
    for fetch in workload.tile_plan():
        scheduler.submit(TileOp.read(fetch.dataset, fetch.origin,
                                     fetch.extents, submit_time=0.0,
                                     stream=workload.name))
    executed = scheduler.drain()
    useful = sum(op.result.useful_bytes for op in executed)
    fetched = sum(op.result.fetched_bytes for op in executed)
    makespan = max((op.result.end_time for op in executed), default=0.0)
    cell: Dict[str, object] = {
        "system": system_name,
        "devices": devices,
        "mode": mode,
        "ops": len(executed),
        "useful_bytes": useful,
        "fetched_bytes": fetched,
        "makespan_seconds": makespan,
        "goodput_bytes_per_second": useful / makespan if makespan > 0
        else 0.0,
    }
    device_report = scheduler.device_report()
    if device_report:
        cell["device_subops"] = {name: entry["subops"]
                                 for name, entry in device_report.items()}
    return cell


def run_co_cell(system_name: str, devices: int,
                profile: DeviceProfile = CONSUMER_SSD,
                mode: str = "fixed-per-device",
                tenants: int = 2,
                workloads=None,
                queue_depth: int = 8,
                arbitration: str = "round_robin") -> Dict[str, object]:
    """One tenant co-run cell: ``tenants`` scan workloads share one
    ``devices``-member pool through :func:`co_run_workloads`, and the
    cell reports per-tenant plus aggregate goodput — the multi-tenant
    analogue of :func:`run_cell`, quantifying whether pool parallelism
    absorbs the co-tenant or the tenants serialize on shared devices."""
    from repro.obs.report import SYSTEM_FACTORIES
    from repro.workloads.runner import co_run_workloads

    factory = SYSTEM_FACTORIES.get(system_name)
    if factory is None:
        raise ValueError(f"unknown system {system_name!r}; pick from "
                         f"{sorted(SYSTEM_FACTORIES)}")
    if tenants < 2:
        raise ValueError("a co-run needs at least 2 tenants")
    if workloads is None:
        workloads = [ScanWorkload(name=f"scan{t}", dataset=f"S{t}")
                     for t in range(tenants)]
    member_profile = _profile_for(profile, devices, mode)
    system = (factory(member_profile) if devices <= 1
              else factory(member_profile, devices=devices))
    result = co_run_workloads(workloads, system, queue_depth=queue_depth,
                              arbitration=arbitration)
    tiles = {w.name: len(w.tile_plan()) for w in workloads}
    tile_bytes = {w.name: w.tile_bytes(w.tile_plan()[0]) for w in workloads}
    streams: Dict[str, Dict[str, object]] = {}
    total_useful = 0
    for name in sorted(result.streams):
        stream = result.streams[name]
        useful = tiles[name] * tile_bytes[name]
        total_useful += useful
        streams[name] = {
            "tiles": stream.tiles,
            "io_makespan": stream.io_makespan,
            "mean_io_latency": stream.mean_io_latency,
            "p95_io_latency": stream.p95_io_latency,
            "goodput_bytes_per_second": (useful / stream.io_makespan
                                         if stream.io_makespan > 0 else 0.0),
        }
    makespan = result.io_makespan
    cell: Dict[str, object] = {
        "system": system_name,
        "devices": devices,
        "mode": mode,
        "tenants": len(workloads),
        "arbitration": arbitration,
        "useful_bytes": total_useful,
        "makespan_seconds": makespan,
        "goodput_bytes_per_second": (total_useful / makespan
                                     if makespan > 0 else 0.0),
        "streams": streams,
    }
    if result.devices:
        cell["device_subops"] = {name: entry["subops"]
                                 for name, entry in result.devices.items()}
    return cell


def scaleout_sweep(device_counts: Sequence[int] = DEVICE_COUNTS,
                   systems: Sequence[str] = _SWEEP_SYSTEMS,
                   modes: Sequence[str] = CAPACITY_MODES,
                   profile: DeviceProfile = CONSUMER_SSD,
                   workload=None,
                   queue_depth: int = 8,
                   tenants: int = 1) -> Dict[str, object]:
    """The full sweep: every (mode, system, device count) cell plus
    per-cell speedup relative to the same system's 1-device run.

    With ``tenants > 1`` every cell becomes a :func:`run_co_cell`
    tenant co-run over the pool (``workload`` is ignored — each tenant
    scans its own matrix); speedups still compare against the same
    system's 1-device co-run."""
    sweep: Dict[str, object] = {
        "profile": profile.name,
        "queue_depth": queue_depth,
        "device_counts": [int(n) for n in device_counts],
        "modes": list(modes),
        "cells": [],
    }
    if tenants > 1:
        sweep["tenants"] = tenants
    baselines: Dict[tuple, float] = {}
    for mode in modes:
        for system_name in systems:
            for devices in device_counts:
                if tenants > 1:
                    cell = run_co_cell(system_name, int(devices),
                                       profile=profile, mode=mode,
                                       tenants=tenants,
                                       queue_depth=queue_depth)
                else:
                    cell = run_cell(system_name, int(devices),
                                    profile=profile, mode=mode,
                                    workload=workload,
                                    queue_depth=queue_depth)
                key = (mode, system_name)
                goodput = cell["goodput_bytes_per_second"]
                if int(devices) == 1:
                    baselines[key] = goodput
                reference = baselines.get(key)
                cell["speedup_vs_single"] = (
                    goodput / reference if reference else 0.0)
                sweep["cells"].append(cell)
    return sweep


def sweep_json(sweep: Dict[str, object]) -> str:
    """Byte-stable JSON rendering (sorted keys, fixed separators)."""
    return json.dumps(sweep, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def format_sweep(sweep: Dict[str, object]) -> str:
    """Human-readable table per capacity mode."""
    from repro.analysis.report import format_table

    lines = []
    for mode in sweep["modes"]:
        cells = [c for c in sweep["cells"] if c["mode"] == mode]
        rows = [[c["system"], str(c["devices"]),
                 f"{c['goodput_bytes_per_second'] / 1e9:.3f}",
                 f"{c['makespan_seconds'] * 1e6:.1f}",
                 f"{c['speedup_vs_single']:.2f}x"]
                for c in cells]
        lines.append(format_table(
            ["system", "devices", "goodput (GB/s)", "makespan (us)",
             "speedup"], rows,
            title=f"scale-out sweep — {mode} capacity"))
        lines.append("")
    return "\n".join(lines)
