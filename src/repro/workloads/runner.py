"""Pipelined end-to-end execution of workloads on a storage system.

§6.2: "Each application is pipelined so that its I/O and data
restructuring overlap with the compute kernels." The runner:

1. ingests the workload's datasets into the system (oracle systems get
   one tile-major copy per distinct fetch shape);
2. measures the isolated I/O duration of each distinct fetch shape
   (sampling a few origins — fetches of one shape are statistically
   identical);
3. schedules the tile plan through the 3-stage pipeline
   ``I/O → host-to-device copy → compute kernel`` and reports total
   latency plus the idle time before the compute kernel (Fig. 10(b)).

:func:`co_run_workloads` goes beyond the paper's single-application
setting: several workloads become tenant streams on one shared device.
Each stream submits its tile plan as
:class:`~repro.runtime.tileop.TileOp`s through the system's
:class:`~repro.runtime.scheduler.RequestScheduler` under a per-stream
queue depth; cross-tenant contention emerges from the shared resource
timelines, and per-stream I/O completions feed each workload's own
3-stage pipeline model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.accelerator.gpu import GpuModel, RTX2080
from repro.accelerator.kernels import KernelModel
from repro.host.pipeline import PipelineResult, run_pipeline
from repro.runtime.qos import QosSpec
from repro.runtime.scheduler import percentile
from repro.runtime.tileop import TileOp
from repro.runtime.trace import TraceRecorder
from repro.systems.base import StorageSystem
from repro.systems.oracle import OracleSystem
from repro.workloads.base import TileFetch, Workload

__all__ = ["WorkloadRunResult", "run_workload", "speedup",
           "StreamRunResult", "CoRunResult", "co_run_workloads"]

STAGE_NAMES = ("io", "h2d", "kernel")


@dataclass
class WorkloadRunResult:
    """End-to-end outcome of one (workload, system) pair."""

    workload_name: str
    system_name: str
    total_time: float
    io_busy: float
    h2d_busy: float
    kernel_busy: float
    kernel_idle: float
    tiles: int
    pipeline: PipelineResult = field(repr=False, default=None)
    io_time_by_shape: Dict[Tuple[str, Tuple[int, ...]], float] = field(
        default_factory=dict, repr=False)


def speedup(baseline: WorkloadRunResult, other: WorkloadRunResult) -> float:
    """End-to-end speedup of ``other`` over ``baseline`` (Fig. 10(a))."""
    if other.total_time <= 0:
        return float("inf")
    return baseline.total_time / other.total_time


def ingest_datasets(workloads: Sequence[Workload],
                    system: StorageSystem,
                    qos: Optional[Dict[str, QosSpec]] = None) -> None:
    """Ingest every dataset once; workloads may share datasets by name
    (identical dims/element size), the oracle gets one tile-major copy
    per distinct (dataset, fetch shape). Tenants with a QoS shard get
    their datasets pinned to that shard (STL systems only)."""
    shards = _dataset_shards(workloads, system, qos)
    if isinstance(system, OracleSystem):
        done = set()
        for workload in workloads:
            shapes: Dict[str, List[Tuple[int, ...]]] = {}
            for fetch in workload.tile_plan():
                shapes.setdefault(fetch.dataset, [])
                if fetch.extents not in shapes[fetch.dataset]:
                    shapes[fetch.dataset].append(fetch.extents)
            for ds in workload.datasets():
                for shape in shapes.get(ds.name, [ds.dims]):
                    if (ds.name, shape) in done:
                        continue
                    done.add((ds.name, shape))
                    system.ingest(ds.name, ds.dims, ds.element_size,
                                  tile=shape)
        return
    seen: Dict[str, Tuple[Tuple[int, ...], int]] = {}
    for workload in workloads:
        for ds in workload.datasets():
            signature = (ds.dims, ds.element_size)
            if ds.name in seen:
                if seen[ds.name] != signature:
                    raise ValueError(
                        f"dataset {ds.name!r} declared with conflicting "
                        f"shapes across co-run workloads")
                continue
            seen[ds.name] = signature
            if ds.name in shards:
                system.ingest(ds.name, ds.dims, ds.element_size,
                              shard=shards[ds.name])
            else:
                system.ingest(ds.name, ds.dims, ds.element_size)


def measure_io_times(workload: Workload, system: StorageSystem,
                     plan: Sequence[TileFetch],
                     samples: int = 4) -> Dict[Tuple[str, Tuple[int, ...]], float]:
    """Steady-state streaming I/O duration per distinct (dataset,
    extents) shape.

    Applications issue tile fetches asynchronously (double buffering),
    so consecutive fetches overlap inside the storage stack. We measure
    the *throughput increment*: ``samples`` fetches of one shape are all
    issued at t=0 against shared resource timelines; the steady per-tile
    time is the spacing between consecutive completions. (An isolated
    single-fetch latency would deny NDS — one command per tile — the
    cross-tile overlap the baseline already enjoys through its queue
    depth.)
    """
    groups: Dict[Tuple[str, Tuple[int, ...]], List[TileFetch]] = {}
    for fetch in plan:
        groups.setdefault(fetch.shape_key, []).append(fetch)
    durations: Dict[Tuple[str, Tuple[int, ...]], float] = {}
    for key, fetches in groups.items():
        count = max(2, samples)
        step = max(1, len(fetches) // count)
        picked = [fetches[(i * step) % len(fetches)] for i in range(count)]
        system.reset_time()
        ends: List[float] = []
        for fetch in picked:
            result = system.read_tile(fetch.dataset, fetch.origin,
                                      fetch.extents, start_time=0.0)
            ends.append(result.end_time)
        steady = (ends[-1] - ends[0]) / (len(ends) - 1)
        durations[key] = max(steady, 1e-9)
    return durations


@dataclass
class StreamRunResult:
    """One tenant's outcome inside a multi-workload co-run."""

    workload_name: str
    stream: str
    tiles: int
    #: last I/O completion of this stream (device-side makespan)
    io_makespan: float
    mean_io_latency: float
    max_io_latency: float
    completions: List[float] = field(repr=False, default_factory=list)
    #: 3-stage pipeline totals fed by the contended I/O completions
    total_time: float = 0.0
    kernel_idle: float = 0.0
    pipeline: PipelineResult = field(repr=False, default=None)
    #: QoS accounting (weighted arbitration / latency SLOs)
    weight: float = 1.0
    service_time: float = 0.0
    p50_io_latency: float = 0.0
    p95_io_latency: float = 0.0
    latency_target: Optional[float] = None
    slo_met: int = 0
    slo_violated: int = 0


@dataclass
class CoRunResult:
    """Outcome of several workloads sharing one storage system."""

    streams: Dict[str, StreamRunResult]
    #: end-to-end latency of the slowest tenant pipeline
    total_time: float
    #: last I/O completion over all tenants
    io_makespan: float
    arbitration: str
    queue_depth: int
    trace: Optional[TraceRecorder] = field(repr=False, default=None)
    #: per-workload QoS specs the run was configured with
    qos: Optional[Dict[str, QosSpec]] = field(repr=False, default=None)
    #: per-device accounting when the system runs over a device pool
    #: (None for single-device systems)
    devices: Optional[Dict[str, Dict[str, object]]] = field(
        repr=False, default=None)

    def stream(self, workload_name: str) -> StreamRunResult:
        return self.streams[workload_name]


def _dataset_shards(workloads: Sequence[Workload],
                    system: StorageSystem,
                    qos: Optional[Dict[str, QosSpec]]) -> Dict[str, object]:
    """Map dataset name -> shard from its owning tenants' QoS specs.

    A shared dataset must be shard-consistent across tenants; sharding
    requires an STL system (baseline/oracle have no space allocator to
    pin)."""
    shards: Dict[str, object] = {}
    if not qos:
        return shards
    for workload in workloads:
        spec = qos.get(workload.name)
        if spec is None or spec.shard is None:
            continue
        if (getattr(system, "stl", None) is None
                and getattr(system, "cluster", None) is None):
            raise ValueError(
                f"per-tenant sharding needs an STL system or a device "
                f"pool; {system.name!r} has no space allocator to pin")
        for ds in workload.datasets():
            existing = shards.get(ds.name)
            if existing is not None and existing != spec.shard:
                raise ValueError(
                    f"dataset {ds.name!r} is shared across tenants with "
                    f"conflicting shards")
            shards[ds.name] = spec.shard
    return shards


def co_run_workloads(workloads: Sequence[Workload], system: StorageSystem,
                     queue_depth: int = 8,
                     arbitration: str = "round_robin",
                     gpu: GpuModel = RTX2080,
                     kernels: Optional[KernelModel] = None,
                     trace: Optional[TraceRecorder] = None,
                     ingest: bool = True,
                     qos: Optional[Dict[str, QosSpec]] = None) -> CoRunResult:
    """Run several workloads concurrently on one shared system.

    Each workload becomes a tenant stream: its whole tile plan is
    submitted at t=0 and the scheduler admits ops under ``queue_depth``
    in-flight per stream, arbitrating FIFO, round-robin or weighted
    shares across tenants. Contention is carried by the shared resource
    timelines, so per-stream latencies reflect exactly what the
    co-tenant costs. Pass a :class:`TraceRecorder` to capture the
    per-layer Chrome trace of the co-run (ingest is excluded from the
    trace).

    ``qos`` maps workload names to :class:`~repro.runtime.qos.QosSpec`:
    the spec's ``weight`` feeds ``"weighted"`` arbitration, its
    ``latency_target`` arms per-op SLO accounting, and its ``shard``
    pins the tenant's datasets to a disjoint channel/bank subset
    (STL systems only — hard isolation).
    """
    if arbitration not in ("fifo", "round_robin", "weighted"):
        raise ValueError(f"unknown arbitration {arbitration!r}")
    workloads = list(workloads)
    names = [workload.name for workload in workloads]
    if len(set(names)) != len(names):
        raise ValueError("co-run workloads must have distinct names")
    qos = dict(qos) if qos else {}
    unknown = set(qos) - set(names)
    if unknown:
        raise ValueError(f"qos specs for unknown workloads: {sorted(unknown)}")
    kernels = kernels if kernels is not None else KernelModel(gpu)
    if ingest:
        ingest_datasets(workloads, system, qos)
    system.reset_time()
    if trace is not None:
        system.set_trace(trace)

    scheduler = system.scheduler
    scheduler.arbitration = arbitration
    for workload in workloads:
        spec = qos.get(workload.name)
        scheduler.stream(workload.name, queue_depth,
                         weight=spec.weight if spec else None,
                         latency_target=spec.latency_target if spec else None)
        for fetch in workload.tile_plan():
            scheduler.submit(TileOp.read(fetch.dataset, fetch.origin,
                                         fetch.extents, submit_time=0.0,
                                         stream=workload.name))
    scheduler.drain()

    streams: Dict[str, StreamRunResult] = {}
    for workload in workloads:
        handle = scheduler.streams[workload.name]
        completions = handle.completions
        latencies = handle.latencies
        plan = workload.tile_plan()
        stage_times: List[List[float]] = []
        previous = 0.0
        for fetch, completion in zip(plan, completions):
            io = max(completion - previous, 0.0)
            previous = completion
            stage_times.append([io, gpu.h2d_time(workload.tile_bytes(fetch)),
                                workload.kernel_time(kernels, fetch)])
        pipeline = run_pipeline(stage_times, STAGE_NAMES, trace=trace,
                                stream=workload.name)
        streams[workload.name] = StreamRunResult(
            workload_name=workload.name,
            stream=workload.name,
            tiles=len(plan),
            io_makespan=handle.makespan,
            mean_io_latency=handle.mean_latency,
            max_io_latency=max(latencies) if latencies else 0.0,
            completions=completions,
            total_time=pipeline.total_time,
            kernel_idle=pipeline.idle_of("kernel"),
            pipeline=pipeline,
            weight=handle.weight,
            service_time=handle.service_time,
            p50_io_latency=percentile(latencies, 0.50),
            p95_io_latency=percentile(latencies, 0.95),
            latency_target=handle.latency_target,
            slo_met=handle.slo_met,
            slo_violated=handle.slo_violated,
        )
    return CoRunResult(
        streams=streams,
        total_time=max((s.total_time for s in streams.values()), default=0.0),
        io_makespan=max((s.io_makespan for s in streams.values()),
                        default=0.0),
        arbitration=arbitration,
        queue_depth=queue_depth,
        trace=trace,
        qos=qos or None,
        devices=scheduler.device_report(),
    )


def run_workload(workload: Workload, system: StorageSystem,
                 gpu: GpuModel = RTX2080,
                 kernels: Optional[KernelModel] = None,
                 samples: int = 3,
                 ingest: bool = True) -> WorkloadRunResult:
    """Execute one workload end to end on one system (timing model)."""
    kernels = kernels if kernels is not None else KernelModel(gpu)
    if ingest:
        ingest_datasets([workload], system)
    plan = workload.tile_plan()
    io_times = measure_io_times(workload, system, plan, samples=samples)
    stage_times: List[List[float]] = []
    for fetch in plan:
        io = io_times[fetch.shape_key]
        h2d = gpu.h2d_time(workload.tile_bytes(fetch))
        kernel = workload.kernel_time(kernels, fetch)
        stage_times.append([io, h2d, kernel])
    pipeline = run_pipeline(stage_times, STAGE_NAMES)
    return WorkloadRunResult(
        workload_name=workload.name,
        system_name=system.name,
        total_time=pipeline.total_time,
        io_busy=pipeline.busy_of("io"),
        h2d_busy=pipeline.busy_of("h2d"),
        kernel_busy=pipeline.busy_of("kernel"),
        kernel_idle=pipeline.idle_of("kernel"),
        tiles=len(plan),
        pipeline=pipeline,
        io_time_by_shape=io_times,
    )
