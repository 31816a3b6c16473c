"""Common interface of the end-to-end storage systems (paper Fig. 7).

A *system* bundles a modelled device, the interconnect and the host
cost model, and exposes dataset-level operations the workloads use:

* ``ingest`` — store an N-D dataset;
* ``read_tile`` — fetch an arbitrary axis-aligned tile into host memory
  *in the layout the compute kernel wants*, paying whatever marshalling
  that architecture requires;
* ``write_tile`` — the reverse;
* ``tile_io_time`` — the isolated duration of one tile fetch (used by
  the pipeline model of Fig. 10).

All three architectures implement the same interface, so workloads and
benchmarks are architecture-agnostic — which is exactly the programming
model NDS advocates (§5.1).

Every dataset-level operation is a typed
:class:`~repro.runtime.tileop.TileOp` routed through the system's
:class:`~repro.runtime.scheduler.RequestScheduler`: the synchronous
``read_tile``/``write_tile``/``ingest`` facade builds an op on the
ungated default stream (bit-identical to the seed-era direct call
path), while multi-tenant runs create named streams with queue depths
and submit batches. Concrete systems implement the ``_execute_*``
hooks, which hold the per-architecture analytic flows.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.scheduler import RequestScheduler
from repro.runtime.tileop import DEFAULT_STREAM, TileOp
from repro.runtime.trace import TraceRecorder
from repro.sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.probe import Probe

__all__ = ["SystemOpResult", "StorageSystem", "row_runs"]


@dataclass
class SystemOpResult:
    """Outcome of one dataset-level operation."""

    start_time: float
    end_time: float
    useful_bytes: int = 0
    fetched_bytes: int = 0
    requests: int = 0
    data: Optional[np.ndarray] = None
    stats: StatSet = field(default_factory=StatSet)

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time

    @property
    def effective_bandwidth(self) -> float:
        """Application-payload bytes per second."""
        if self.elapsed <= 0:
            return 0.0
        return self.useful_bytes / self.elapsed


class StorageSystem(abc.ABC):
    """One end-to-end architecture (baseline / software NDS / hardware
    NDS / oracle)."""

    name: str = "abstract"

    #: host translation layer over a device pool (None = classic
    #: single-device system; set by :meth:`_init_cluster` when a
    #: constructor is given ``devices > 1``)
    cluster = None

    #: host DRAM cache tier (None = uncached, bit-identical; set by
    #: :meth:`_init_tier` when a constructor is given ``cache=``)
    tier = None

    #: the system's observation bus (None until a subscriber is first
    #: attached; see :meth:`set_trace`)
    _probe: Optional[Probe] = None

    # ------------------------------------------------------------------
    # the request spine
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> RequestScheduler:
        """The system's request scheduler (created on first use)."""
        sched = getattr(self, "_scheduler", None)
        if sched is None:
            sched = RequestScheduler(self)
            self._scheduler = sched
            self._connect_ledger(sched.ledger)
        return sched

    def _connect_ledger(self, ledger) -> None:
        """Point the system's counter sources at its scheduler's
        :class:`~repro.runtime.ledger.OpLedger`: the DRAM tier and the
        fault injector, or on a pool the cluster layer, with each
        member's ledger chained under this one."""
        cluster = self.cluster
        if cluster is not None:
            cluster.ledger = ledger
            for member in self._member_systems():
                inner = member.scheduler.ledger
                inner.parent = ledger
                ledger.cache_sources += inner.cache_sources
                ledger.fault_sources += inner.fault_sources
            injected = bool(ledger.fault_sources)
            counts, pool = cluster.stats.counters, cluster.pool
            ledger.fault_sources += (("cluster_", counts),)
            # the condition under which fault_counters() is not None
            ledger.fault_source = (
                lambda: injected or bool(counts) or pool.has_kill_plan)
            return
        if self.tier is not None:
            self.tier.ledger = ledger
            ledger.cache_sources = (("", self.tier.counters),)
        injector = self._injector()
        if injector is not None:
            injector.ledger = ledger
            ledger.fault_sources = (("", injector.stats.counters),)
            ledger.fault_source = lambda: True

    def set_trace(self, recorder: Optional[TraceRecorder]) -> None:
        """Subscribe (or unsubscribe with None) a trace recorder to the
        system's probe."""
        self._bus().trace = recorder
        self._attach_probe()

    def set_metrics(self, registry) -> None:
        """Subscribe (or unsubscribe with None) a
        :class:`~repro.obs.metrics.MetricsRegistry` to the system's
        probe. The flash events also count per-line busy time
        (``timeline.<line>.busy_seconds`` / ``.reservations``), so
        channel and bank utilization accumulates without a trace."""
        self._bus().metrics = registry
        self._attach_probe()

    def set_monitor(self, monitor) -> None:
        """Subscribe (or unsubscribe with None) a live
        :class:`~repro.obs.monitor.Monitor` to the system's probe: it
        receives every completed op (and, through an
        :class:`~repro.traffic.injector.OpenLoopInjector`, the traffic
        events)."""
        self._bus().monitor = monitor
        self._attach_probe()

    def _bus(self) -> Probe:
        """The system's probe (created on first subscription, so an
        unobserved run never imports :mod:`repro.obs`)."""
        if self._probe is None:
            from repro.obs.probe import Probe
            self._probe = Probe()
        return self._probe

    def _attach_probe(self) -> None:
        """Hand the probe to the scheduler and to every instrumented
        layer, or None to each that has nothing to emit to. Component
        layers emit only trace and metrics events; the monitor takes op
        and traffic events. Pool members get device-scoped probes over
        the same subscribers. Observation never feeds back into timing:
        with nothing subscribed the model is bit-identical."""
        probe = self._probe
        recording = (probe if probe.trace is not None
                     or probe.metrics is not None else None)
        self.scheduler.probe = (recording if probe.monitor is None
                                else probe)
        if self.cluster is not None:
            self.cluster.probe = recording
            for handle in self.cluster.pool.devices:
                member = handle.system
                member._probe = probe.scoped(handle.device_id)
                member._attach_probe()
            return
        for layer in self._probed_layers():
            if layer is not None:
                layer.probe = recording

    def _probed_layers(self) -> tuple:
        """The layers that emit through the probe (None entries, such
        as an absent DRAM tier, are skipped)."""
        return ()

    def _injector(self):
        """The flash fault injector (None when none is attached)."""
        for holder in (self, getattr(self, "ssd", None)):
            flash = getattr(holder, "flash", None)
            if flash is not None and getattr(flash, "faults", None) is not None:
                return flash.faults
        return None

    def fault_counters(self) -> Optional[dict]:
        """Snapshot of the flash fault injector's counters (summed over
        pool members plus the ``cluster_*`` counts when clustered; None
        when there is no fault source). Per-op deltas do not come from
        here: the injector pushes them into the scheduler's ledger."""
        if self.cluster is not None:
            return self.cluster.fault_counters()
        injector = self._injector()
        return injector.counters() if injector is not None else None

    # ------------------------------------------------------------------
    # host DRAM cache tier (optional; absent = bit-identical)
    # ------------------------------------------------------------------
    def _init_tier(self, cache) -> None:
        """Attach a :class:`~repro.cache.HostTierCache` when the
        constructor was given ``cache=CacheConfig(...)``. With the knob
        absent nothing is attached and every timed float is
        bit-identical to the uncached model. Write-back flushes replay
        the system's own ``_flush_cache_entry`` (each family base,
        :class:`~repro.systems.nds.NdsSystem` and
        :class:`~repro.systems.baseline.LinearSystem`, defines one)."""
        if cache is None:
            return
        from repro.cache import HostTierCache
        self.tier = HostTierCache(cache)
        self.tier.flush_fn = self._flush_cache_entry

    def _member_systems(self) -> tuple:
        """Pool member systems (empty for single-device systems)."""
        if self.cluster is None:
            return ()
        return tuple(handle.system for handle in self.cluster.pool.devices)

    def cache_counters(self) -> Optional[dict]:
        """Snapshot of the DRAM tier's counters (summed over pool
        members when clustered; None with no tier attached). Per-op
        deltas do not come from here: the tier pushes them into the
        scheduler's ledger."""
        if self.tier is not None:
            return self.tier.counters_snapshot()
        totals: Optional[dict] = None
        for member in self._member_systems():
            tier = member.tier
            if tier is None:
                continue
            if totals is None:
                totals = {}
            for key, value in tier.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def cache_dirty_bytes(self) -> Optional[int]:
        """Bytes currently buffered dirty in the DRAM tier (summed over
        pool members when clustered; None with no tier attached) — the
        live monitor and the trace counter track sample this."""
        if self.tier is not None:
            return self.tier.dirty_bytes
        total: Optional[int] = None
        for member in self._member_systems():
            if member.tier is None:
                continue
            total = (total or 0) + member.tier.dirty_bytes
        return total

    def flush_cache(self, start_time: float = 0.0) -> float:
        """Durability fence: write every buffered dirty region back to
        flash. Returns the completion time (``start_time`` when there
        is nothing to flush or no tier attached)."""
        if self.tier is not None:
            return self.tier.flush_all(start_time)
        end = start_time
        for member in self._member_systems():
            end = max(end, member.flush_cache(start_time))
        return end

    def cache_report(self) -> Optional[dict]:
        """Deterministic tier summary (aggregated over pool members
        when clustered; None with no tier attached)."""
        if self.tier is not None:
            return self.tier.report()
        reports = [m.cache_report() for m in self._member_systems()]
        reports = [r for r in reports if r is not None]
        if not reports:
            return None
        merged = dict(reports[0])
        for report in reports[1:]:
            for key, value in report.items():
                if isinstance(value, bool) or not isinstance(value, int):
                    continue
                merged[key] = merged.get(key, 0) + value
        demand = merged["hits"] + merged["misses"]
        merged["hit_rate"] = (round(merged["hits"] / demand, 6)
                              if demand else 0.0)
        merged["prefetch_accuracy"] = (
            round(merged["prefetch_hits"] / merged["prefetch_issued"], 6)
            if merged["prefetch_issued"] else 0.0)
        return merged

    def _execute_op(self, op: TileOp, earliest_start: float) -> SystemOpResult:
        """Dispatch one scheduled op to the architecture's flow."""
        if self.cluster is not None:
            return self.cluster.execute(op, earliest_start)
        if op.kind == "read":
            return self._execute_read(op.dataset, op.origin, op.extents,
                                      earliest_start, op.with_data, op.dtype)
        if op.kind == "write":
            return self._execute_write(op.dataset, op.origin, op.extents,
                                       op.data, earliest_start, **op.params)
        if op.kind == "ingest":
            return self._execute_ingest(op.dataset, op.extents,
                                        op.element_size, op.data,
                                        earliest_start, **op.params)
        raise ValueError(f"unknown TileOp kind {op.kind!r}")

    # ------------------------------------------------------------------
    # synchronous facade (single stream, never queue-depth gated)
    # ------------------------------------------------------------------
    def ingest(self, dataset: str, dims: Sequence[int], element_size: int,
               data: Optional[np.ndarray] = None,
               start_time: float = 0.0, **params) -> SystemOpResult:
        """Store a dataset; ``data`` (shape ``dims``) enables functional
        verification, None runs timing-only. Extra keywords reach the
        architecture (baseline: ``layout=``, oracle: ``tile=``)."""
        op = TileOp.ingest(dataset, dims, element_size, data=data,
                           submit_time=start_time, **params)
        return self.scheduler.execute(op).result

    def read_tile(self, dataset: str, origin: Sequence[int],
                  extents: Sequence[int], start_time: float = 0.0,
                  with_data: bool = False,
                  dtype: Optional[np.dtype] = None,
                  stream: str = DEFAULT_STREAM) -> SystemOpResult:
        """Fetch a tile into host memory ready for the compute kernel."""
        op = TileOp.read(dataset, origin, extents, submit_time=start_time,
                         with_data=with_data, dtype=dtype, stream=stream)
        return self.scheduler.execute(op).result

    def write_tile(self, dataset: str, origin: Sequence[int],
                   extents: Sequence[int],
                   data: Optional[np.ndarray] = None,
                   start_time: float = 0.0,
                   stream: str = DEFAULT_STREAM) -> SystemOpResult:
        """Store a tile back."""
        op = TileOp.write(dataset, origin, extents, data=data,
                          submit_time=start_time, stream=stream)
        return self.scheduler.execute(op).result

    # ------------------------------------------------------------------
    # architecture hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _execute_ingest(self, dataset: str, dims: Tuple[int, ...],
                        element_size: int, data: Optional[np.ndarray],
                        start_time: float, **params) -> SystemOpResult:
        """Architecture flow behind :meth:`ingest`."""

    @abc.abstractmethod
    def _execute_read(self, dataset: str, origin: Tuple[int, ...],
                      extents: Tuple[int, ...], start_time: float,
                      with_data: bool,
                      dtype: Optional[np.dtype]) -> SystemOpResult:
        """Architecture flow behind :meth:`read_tile`."""

    @abc.abstractmethod
    def _execute_write(self, dataset: str, origin: Tuple[int, ...],
                       extents: Tuple[int, ...],
                       data: Optional[np.ndarray],
                       start_time: float) -> SystemOpResult:
        """Architecture flow behind :meth:`write_tile`."""

    @abc.abstractmethod
    def reset_time(self) -> None:
        """Zero every timeline (contents preserved) for a fresh
        measurement phase. Implementations call
        :meth:`_reset_runtime` to clear scheduler history too."""

    def _reset_runtime(self) -> None:
        """Clear scheduler completion windows and op history."""
        sched = getattr(self, "_scheduler", None)
        if sched is not None:
            sched.reset()

    # ------------------------------------------------------------------
    # device-pool hooks (multi-device operation)
    # ------------------------------------------------------------------
    def _init_cluster(self, devices: int, faults, rebalance,
                      extents_per_device: int, factory) -> bool:
        """Attach a :class:`~repro.cluster.ClusterTranslationLayer` when
        the constructor asked for more than one device.

        ``factory(device_id, device_faults)`` builds one member system;
        with ``devices=1`` nothing is attached and the caller proceeds
        with the classic single-device construction (every existing code
        path stays bit-identical). Returns True when pooled.
        """
        if devices <= 1:
            return False
        from repro.cluster import (ClusterTranslationLayer, DevicePool,
                                   split_fault_config)
        count = int(devices)
        pool = DevicePool.from_factory(
            count, lambda i: factory(i, split_fault_config(faults, i, count)))
        parity = bool(faults.parity) if faults is not None else False
        self.cluster = ClusterTranslationLayer(
            pool, self, parity=parity,
            extents_per_device=extents_per_device, rebalance=rebalance)
        if faults is not None and faults.plan is not None:
            for event in faults.plan.events:
                if event.kind == "kill_device":
                    pool.schedule_kill(event.device, event.time)
        return True

    def _cluster_align(self, dims: Sequence[int], element_size: int,
                       params: dict) -> int:
        """Axis-0 quantum extent boundaries must honour (asked on a
        pool member): 1 row unless the architecture has a natural unit
        (NDS building-block height, oracle tile height)."""
        return 1

    def _cluster_ingest_key(self, dataset: str, dims: Tuple[int, ...],
                            params: dict):
        """Host-layer identity of an ingested dataset."""
        return dataset

    def _cluster_read_key(self, dataset: str, extents: Tuple[int, ...]):
        """Host-layer lookup key for a read/write of ``dataset``."""
        return dataset

    def device_report(self):
        """Per-device accounting (None for single-device systems)."""
        if self.cluster is None:
            return None
        return self.cluster.device_report()

    # ------------------------------------------------------------------
    def tile_io_time(self, dataset: str, origin: Sequence[int],
                     extents: Sequence[int]) -> float:
        """Isolated duration of one tile fetch, used as the I/O stage
        time of the Fig. 10 pipeline model."""
        self.reset_time()
        result = self.read_tile(dataset, origin, extents, start_time=0.0,
                                with_data=False)
        return result.elapsed


def row_runs(dims: Sequence[int], origin: Sequence[int],
             extents: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Contiguous element runs of a tile in a row-major dataset.

    Returns ``((linear_start, length), ...)``, one per tile row (rows
    that merge into a fully contiguous range are coalesced).
    """
    rank = len(dims)
    if rank == 0:
        return ()
    strides = [1] * rank
    for axis in range(rank - 2, -1, -1):
        strides[axis] = strides[axis + 1] * dims[axis + 1]
    # Fully contiguous tail: a run may span axis k when every deeper
    # axis is covered entirely.
    contiguous_tail = rank - 1
    while (contiguous_tail > 0
           and extents[contiguous_tail] == dims[contiguous_tail]):
        contiguous_tail -= 1
    # Length of one run = product of extents over covered tail axes.
    run_length = 1
    for axis in range(contiguous_tail, rank):
        run_length *= extents[axis]
    if contiguous_tail == 1 and extents[0] > 0:
        # only axis 0 is outer: one run per row, a stride apart
        start = 0
        for axis in range(rank):
            start += origin[axis] * strides[axis]
        stride = strides[0]
        return tuple(zip(range(start, start + extents[0] * stride, stride),
                         repeat(run_length)))

    outer_axes = range(contiguous_tail)
    counters = [0] * contiguous_tail
    runs = []
    while True:
        linear = 0
        for axis in outer_axes:
            linear += (origin[axis] + counters[axis]) * strides[axis]
        for axis in range(contiguous_tail, rank):
            linear += origin[axis] * strides[axis]
        runs.append((linear, run_length))
        # odometer increment over the outer axes
        axis = contiguous_tail - 1
        while axis >= 0:
            counters[axis] += 1
            if counters[axis] < extents[axis]:
                break
            counters[axis] = 0
            axis -= 1
        if axis < 0:
            break
    return tuple(runs)
