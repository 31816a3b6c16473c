"""Load-line sweep: offered load vs goodput and tail latency.

The open-loop analogue of :mod:`~repro.analysis.scaleout_sweep`: for
each (system, device count) the driver ramps the offered arrival rate
of an embedding-serving tenant geometrically until the system
saturates, and records per point

* **goodput** (completed requests/second and payload bytes/second —
  the quantity that flattens at capacity while offered load keeps
  climbing),
* **shed rate** (admission-queue backpressure past saturation),
* **latency tails** p50/p99/p999/max of request latency, split into
  scheduler queue-wait vs service, plus the per-layer attribution of
  the service interval from the existing
  :func:`~repro.obs.critical_path.critical_path` spine (which layer —
  STL translation, FTL map, channel, bank, link, host — the time went
  to; map/translation stalls are a first-class tail contributor).

Saturation is declared when goodput improves by less than
``saturation_gain`` over the previous point, or more than half the
offered requests get shed; the saturating point is kept so the load
line always shows the knee.

Everything is seeded and the JSON rendering is byte-stable (sorted
keys, fixed separators); the ``loadtest-determinism`` CI job runs the
driver twice and diffs the files.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.cache.config import CacheConfig
from repro.faults.model import FaultConfig
from repro.nvm.profiles import TINY_TEST, DeviceProfile
from repro.obs.critical_path import critical_path
from repro.obs.monitor import Monitor
from repro.obs.slo import SloPolicy
from repro.runtime.trace import TraceRecorder
from repro.traffic.arrivals import (ArrivalProcess, DiurnalProcess,
                                    MmppProcess, PoissonProcess)
from repro.traffic.injector import OpenLoopInjector, TrafficStream
from repro.workloads.embedding import EmbeddingWorkload

__all__ = ["LOADLINE_SYSTEMS", "default_workload", "arrival_process",
           "serving_injector", "run_load_point", "loadline_sweep",
           "sweep_json", "format_loadline"]

LOADLINE_SYSTEMS = ("baseline", "software-nds", "hardware-nds",
                    "software-oracle")

_ARRIVALS = ("poisson", "mmpp", "diurnal")


def default_workload(seed: int = 0xE3B) -> EmbeddingWorkload:
    """A TINY_TEST-sized embedding table: 256 users × 16 floats."""
    return EmbeddingWorkload(num_embeddings=256, embedding_dim=16,
                             num_tables=1, batch_size=2, pooling_factor=2,
                             num_batches=4, alpha=1.05,
                             weights_precision=4, update_fraction=0.25,
                             seed=seed)


def arrival_process(kind: str, rate: float, seed: int) -> ArrivalProcess:
    """Build one of the three arrival shapes at a mean rate."""
    if kind == "poisson":
        return PoissonProcess(rate, seed=seed)
    if kind == "mmpp":
        # bursty: 4:1 peak-to-trough, short high-rate dwells
        return MmppProcess((0.4 * rate, 1.6 * rate), (0.01, 0.01),
                           seed=seed)
    if kind == "diurnal":
        return DiurnalProcess(rate, period=0.02, amplitude=0.6, seed=seed)
    raise ValueError(f"unknown arrival kind {kind!r}; pick from {_ARRIVALS}")


def _merged_cell(result, scheduler) -> Dict[str, object]:
    """Aggregate a multi-tenant run into one report-shaped dict.

    Counters sum, rates recompute over the merged horizon/makespan,
    and percentiles are taken over the *merged* latency (and scheduler
    queue-wait/service) populations — not averaged per-stream tails."""
    from repro.runtime.scheduler import percentile

    reports = [result.streams[name] for name in sorted(result.streams)]
    offered = sum(r.offered for r in reports)
    shed_throttled = sum(r.shed_throttled for r in reports)
    shed_queue_full = sum(r.shed_queue_full for r in reports)
    useful = sum(r.useful_bytes for r in reports)
    span = max(result.horizon, result.makespan)
    latencies = sorted(lat for r in reports for lat in r.latencies)
    waits: List[float] = []
    services: List[float] = []
    for name in sorted(result.streams):
        handle = scheduler.streams.get(name)
        if handle is not None:
            waits.extend(handle.queue_waits)
            services.extend(handle.service_times)
    waits.sort()
    services.sort()
    return {
        "offered": offered,
        "admitted": result.admitted,
        "shed_throttled": shed_throttled,
        "shed_queue_full": shed_queue_full,
        "shed_rate": ((shed_throttled + shed_queue_full) / offered
                      if offered else 0.0),
        "failed": sum(r.failed for r in reports),
        "completed": result.completed,
        "ops": sum(r.ops for r in reports),
        "useful_bytes": useful,
        "makespan": result.makespan,
        "offered_rate": offered / result.horizon,
        "goodput_rps": result.goodput_rps,
        "goodput_bytes_per_second": result.goodput_bytes_per_second,
        "mean_latency": (sum(latencies) / len(latencies)
                         if latencies else 0.0),
        "p50_latency": percentile(latencies, 0.50),
        "p95_latency": percentile(latencies, 0.95),
        "p99_latency": percentile(latencies, 0.99),
        "p999_latency": percentile(latencies, 0.999),
        "max_latency": latencies[-1] if latencies else 0.0,
        "mean_queue_wait": sum(waits) / len(waits) if waits else 0.0,
        "p99_queue_wait": percentile(waits, 0.99),
        "mean_service": (sum(services) / len(services)
                         if services else 0.0),
        "p99_service": percentile(services, 0.99),
    }


def serving_injector(system_name: str, offered_rate: float,
                     workload: EmbeddingWorkload,
                     profile: DeviceProfile = TINY_TEST,
                     devices: int = 1,
                     cache: Optional[CacheConfig] = None,
                     faults: Optional[FaultConfig] = None,
                     arrival: str = "poisson",
                     seed: int = 97,
                     tenants: int = 1,
                     token_rate: Optional[float] = None,
                     admission_queue: Optional[int] = 64,
                     horizon: float = 0.05,
                     trace: Optional[TraceRecorder] = None,
                     marks: int = 0,
                     monitor: Optional[Monitor] = None) -> OpenLoopInjector:
    """A ready-to-run embedding-serving scenario: ``system_name`` over a
    ``devices``-member pool (with the optional DRAM tier and fault
    config) holding ``workload``'s tables, with the clocks reset, and
    an injector of ``offered_rate`` requests/s split over ``tenants``
    traffic streams (see :func:`run_load_point`)."""
    from repro.obs.report import SYSTEM_FACTORIES

    factory = SYSTEM_FACTORIES.get(system_name)
    if factory is None:
        raise ValueError(f"unknown system {system_name!r}; pick from "
                         f"{sorted(SYSTEM_FACTORIES)}")
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    kwargs: Dict[str, object] = {}
    if devices > 1:
        kwargs["devices"] = devices
    if cache is not None:
        kwargs["cache"] = cache
    if faults is not None:
        kwargs["faults"] = faults
    system = factory(profile, **kwargs)
    if system_name == "software-oracle":
        # the oracle stores one tile-major copy per fetch shape
        for ds in workload.datasets():
            system.ingest(ds.name, ds.dims, ds.element_size,
                          tile=(1, workload.embedding_dim))
    else:
        for ds in workload.datasets():
            system.ingest(ds.name, ds.dims, ds.element_size)
    system.reset_time()
    system._reset_runtime()

    if tenants == 1:
        streams = [TrafficStream(
            "serve", arrival_process(arrival, offered_rate, seed),
            workload.request_factory(),
            token_rate=token_rate, admission_queue=admission_queue)]
    else:
        streams = [TrafficStream(
            f"serve{t}",
            arrival_process(arrival, offered_rate / tenants,
                            seed + 7919 * t),
            workload.request_factory(salt=t),
            token_rate=token_rate, admission_queue=admission_queue)
            for t in range(tenants)]
    return OpenLoopInjector(system, streams, horizon=horizon, trace=trace,
                            marks=marks, monitor=monitor)


def run_load_point(system_name: str, offered_rate: float,
                   devices: int = 1,
                   profile: DeviceProfile = TINY_TEST,
                   workload: Optional[EmbeddingWorkload] = None,
                   horizon: float = 0.05,
                   admission_queue: Optional[int] = 64,
                   token_rate: Optional[float] = None,
                   arrival: str = "poisson",
                   seed: int = 97,
                   tenants: int = 1,
                   attribute_layers: bool = True,
                   cache: Optional[CacheConfig] = None,
                   monitor: Optional[SloPolicy] = None) -> Dict[str, object]:
    """One point of the load line: inject ``offered_rate`` requests/s
    of embedding-serving traffic into ``system_name`` over a
    ``devices``-member pool and measure goodput, shed rate and tails.

    ``monitor=SloPolicy(...)`` attaches a fresh windowed
    :class:`~repro.obs.monitor.Monitor` to the run; the cell then
    carries the full monitor report (windowed series, SLO burn rates,
    alerts and — when layer attribution is on — per-window attribution,
    device series and alert diagnoses) under ``"monitor"``.

    ``cache=CacheConfig(...)`` puts the host DRAM tier in front of the
    device path; the cell then carries the tier's hit/miss report under
    ``"cache"`` and per-stream hit rates under ``"stream_cache"``.

    ``tenants > 1`` splits the offered rate across that many co-running
    traffic streams (``serve0``..) with per-tenant arrival seeds and
    salted popularity (tenants do not share hot rows) — the open-loop
    analogue of a pool-aware :func:`co_run_workloads` co-run. The cell
    then reports the merged aggregate plus per-tenant sub-reports under
    ``"streams"``."""
    if workload is None:
        workload = default_workload()
    trace = TraceRecorder() if attribute_layers else None
    mon = Monitor(slo=monitor, horizon=horizon) if monitor is not None \
        else None
    injector = serving_injector(
        system_name, offered_rate, workload, profile=profile,
        devices=devices, cache=cache, arrival=arrival, seed=seed,
        tenants=tenants, token_rate=token_rate,
        admission_queue=admission_queue, horizon=horizon, trace=trace,
        marks=8 if trace else 0, monitor=mon)
    system = injector.system
    result = injector.run()

    cell: Dict[str, object] = {
        "system": system_name,
        "devices": devices,
        "arrival": arrival,
        "offered_rate": offered_rate,
        "horizon": horizon,
    }
    if tenants == 1:
        cell.update(result.streams["serve"].to_dict())
    else:
        cell["tenants"] = tenants
        cell.update(_merged_cell(result, system.scheduler))
        cell["streams"] = {name: report.to_dict()
                           for name, report in sorted(result.streams.items())}
    if trace is not None:
        analysis = critical_path(trace)
        totals = analysis.layer_totals()
        shares = analysis.layer_shares()
        cell["layers"] = {layer: {"seconds": totals[layer],
                                  "share": shares.get(layer, 0.0)}
                          for layer in sorted(totals)}
    if cache is not None:
        cell["cache"] = system.cache_report()
        stream_cache = system.scheduler.stream_cache_report()
        if stream_cache:
            cell["stream_cache"] = stream_cache
    if mon is not None:
        cell["monitor"] = mon.report(trace=trace)
    return cell


def loadline_sweep(systems: Sequence[str] = LOADLINE_SYSTEMS,
                   device_counts: Sequence[int] = (1,),
                   base_rate: float = 400.0,
                   growth: float = 2.0,
                   max_points: int = 8,
                   saturation_gain: float = 0.05,
                   profile: DeviceProfile = TINY_TEST,
                   workload: Optional[EmbeddingWorkload] = None,
                   horizon: float = 0.05,
                   admission_queue: Optional[int] = 64,
                   arrival: str = "poisson",
                   seed: int = 97,
                   tenants: int = 1,
                   attribute_layers: bool = True,
                   cache: Optional[CacheConfig] = None,
                   monitor: Optional[SloPolicy] = None) -> Dict[str, object]:
    """Ramp every (system, devices) series to saturation.

    The offered rate starts at ``base_rate`` (scaled by the device
    count, since an N-member pool saturates ~N× later) and multiplies
    by ``growth`` per point; a series stops early once goodput gains
    less than ``saturation_gain`` (fractional) over the previous point
    or the shed rate exceeds 50 % — the saturating point is included
    and flagged ``"saturated": true``.
    """
    if growth <= 1.0:
        raise ValueError("growth must be > 1 so the ramp terminates")
    if workload is None:
        workload = default_workload()
    sweep: Dict[str, object] = {
        "profile": profile.name,
        "arrival": arrival,
        "base_rate": base_rate,
        "growth": growth,
        "horizon": horizon,
        "admission_queue": admission_queue,
        "workload": {
            "num_embeddings": workload.num_embeddings,
            "embedding_dim": workload.embedding_dim,
            "num_tables": workload.num_tables,
            "pooling_factor": workload.pooling_factor,
            "update_fraction": workload.update_fraction,
            "alpha": workload.alpha,
        },
        "device_counts": [int(n) for n in device_counts],
        "systems": list(systems),
        "cells": [],
    }
    if tenants > 1:
        sweep["tenants"] = tenants
    if cache is not None:
        sweep["cache"] = {
            "capacity_bytes": cache.capacity_bytes,
            "policy": cache.policy,
            "write_back": cache.write_back,
            "prefetch": cache.prefetch,
        }
    if monitor is not None:
        sweep["slo"] = monitor.to_dict()
    for system_name in systems:
        for devices in device_counts:
            previous_goodput: Optional[float] = None
            rate = base_rate * max(1, int(devices))
            for _point in range(max_points):
                cell = run_load_point(
                    system_name, rate, devices=int(devices),
                    profile=profile, workload=workload, horizon=horizon,
                    admission_queue=admission_queue, arrival=arrival,
                    seed=seed, tenants=tenants,
                    attribute_layers=attribute_layers, cache=cache,
                    monitor=monitor)
                goodput = cell["goodput_rps"]
                saturated = False
                if previous_goodput is not None and previous_goodput > 0:
                    gain = goodput / previous_goodput - 1.0
                    saturated = gain < saturation_gain
                if cell["shed_rate"] > 0.5:
                    saturated = True
                cell["saturated"] = saturated
                sweep["cells"].append(cell)
                if saturated:
                    break
                previous_goodput = goodput
                rate *= growth
    return sweep


def sweep_json(sweep: Dict[str, object]) -> str:
    """Byte-stable JSON rendering (sorted keys, fixed separators)."""
    return json.dumps(sweep, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def format_loadline(sweep: Dict[str, object]) -> str:
    """Human-readable load-line table."""
    from repro.analysis.report import format_table

    with_cache = any("cache" in cell for cell in sweep["cells"])
    rows = []
    for cell in sweep["cells"]:
        row = [
            cell["system"], str(cell["devices"]),
            f"{cell['offered_rate']:.0f}",
            f"{cell['goodput_rps']:.0f}",
            f"{cell['shed_rate']:.1%}",
            f"{cell['p50_latency'] * 1e6:.0f}",
            f"{cell['p99_latency'] * 1e6:.0f}",
            f"{cell['p999_latency'] * 1e6:.0f}",
        ]
        if with_cache:
            report = cell.get("cache")
            row.append(f"{report['hit_rate']:.1%}" if report else "")
        row.append("knee" if cell["saturated"] else "")
        rows.append(row)
    header = ["system", "dev", "offered (req/s)", "goodput (req/s)",
              "shed", "p50 (us)", "p99 (us)", "p999 (us)"]
    if with_cache:
        header.append("hit")
    header.append("")
    return format_table(
        header, rows,
        title=f"embedding load line — {sweep['arrival']} arrivals, "
              f"profile {sweep['profile']}")
