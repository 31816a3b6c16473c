"""Multi-tenant request scheduling over shared resource timelines.

The scheduler is the admission layer of the request spine: N tenant
streams submit :class:`~repro.runtime.tileop.TileOp`s; the scheduler
orders them (global FIFO, per-stream round-robin, or weighted
virtual-time shares), gates each stream at its queue depth, and
executes them one after another against the owning system's analytic
flow. Contention is carried entirely by the shared FCFS
:class:`~repro.sim.resources.Timeline` servers the flows reserve — the
scheduler adds *sequencing*, never timing — so a single stream
reproduces the direct call path bit-for-bit, and any fixed submission
order yields a deterministic schedule.

QoS: each stream carries a ``weight`` (its service share under
``"weighted"`` arbitration — deficit/virtual-time scheduling over the
per-op service time actually consumed) and an optional
``latency_target`` SLO; the scheduler accounts met/violated ops and
latency percentiles per stream and marks violations in the trace.

:class:`QueueDepthWindow` is the one queue-depth primitive in the code
base: the same sliding completion window limits NVMe queue pairs inside
:class:`~repro.host.io_engine.HostIoEngine` and tenant streams here.
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from typing import Dict, List, Optional

from repro.runtime.ledger import OpLedger
from repro.runtime.tileop import DEFAULT_STREAM, TileOp

__all__ = ["QueueDepthWindow", "StreamHandle", "RequestScheduler",
           "percentile"]

_ARBITRATIONS = ("fifo", "round_robin", "weighted")


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class QueueDepthWindow:
    """Sliding in-flight window: request ``k`` may not issue before
    ``k - depth`` of the previously issued requests completed
    (``depth=None`` = unbounded).

    Under multi-stream round-robin drains end times arrive out of
    order, and the correct gate for the next request is the ``depth``-th
    *largest* completion seen so far. Only those ``depth`` completions
    can ever gate, so the window keeps exactly them in a min-heap whose
    root is the gate — O(log depth) per completion and O(depth) memory,
    versus the O(n) ``insort`` + unbounded list it replaces.
    """

    __slots__ = ("depth", "completed", "_heap")

    def __init__(self, depth: Optional[int] = None) -> None:
        if depth is not None and depth < 1:
            raise ValueError("queue depth must be >= 1 (or None)")
        self.depth = depth
        #: total completions recorded (the heap holds only the largest
        #: ``depth`` of them)
        self.completed = 0
        self._heap: List[float] = []

    def earliest(self, submit_time: float) -> float:
        """Earliest issue time for the next request, honouring the
        window against all previously completed requests."""
        if self.depth is not None and self.completed >= self.depth:
            gate = self._heap[0]
            if gate > submit_time:
                return gate
        return submit_time

    def complete(self, time: float) -> None:
        self.completed += 1
        if self.depth is None:
            return
        heap = self._heap
        if len(heap) < self.depth:
            heappush(heap, time)
        elif time > heap[0]:
            heapreplace(heap, time)

    def reset(self) -> None:
        self.completed = 0
        self._heap.clear()


class StreamHandle:
    """One tenant stream: identity, queue depth, QoS parameters,
    completion history and SLO accounting."""

    def __init__(self, name: str, queue_depth: Optional[int] = None,
                 weight: float = 1.0,
                 latency_target: Optional[float] = None) -> None:
        if weight <= 0:
            raise ValueError("stream weight must be > 0")
        if latency_target is not None and latency_target <= 0:
            raise ValueError("latency target must be > 0 seconds")
        self.name = name
        self.window = QueueDepthWindow(queue_depth)
        self.ops: List[TileOp] = []
        #: service share under ``"weighted"`` arbitration
        self.weight = float(weight)
        #: per-op latency SLO in seconds (None = no target)
        self.latency_target = latency_target
        #: accumulated device service time (sum of op elapsed times)
        self.service_time = 0.0
        #: SLO accounting (only advances when a target is set)
        self.slo_met = 0
        self.slo_violated = 0

    @property
    def queue_depth(self) -> Optional[int]:
        return self.window.depth

    @property
    def virtual_time(self) -> float:
        """Weighted-fair virtual time: service consumed over weight.
        The weighted arbiter always serves the backlogged stream with
        the smallest virtual time, so long-run service shares converge
        to the weight ratios."""
        return self.service_time / self.weight

    @property
    def completions(self) -> List[float]:
        return [op.result.end_time for op in self.ops if op.result is not None]

    @property
    def latencies(self) -> List[float]:
        return [op.latency for op in self.ops if op.result is not None]

    @property
    def queue_waits(self) -> List[float]:
        """Per-op enqueue→issue waits (queue-depth gating)."""
        return [op.queue_wait for op in self.ops
                if op.queue_wait is not None]

    @property
    def service_times(self) -> List[float]:
        """Per-op issue→completion service times."""
        return [op.service_time for op in self.ops
                if op.service_time is not None]

    @property
    def makespan(self) -> float:
        """Last completion over this stream (0.0 before any finish)."""
        completions = self.completions
        return max(completions) if completions else 0.0

    @property
    def mean_latency(self) -> float:
        latencies = self.latencies
        return sum(latencies) / len(latencies) if latencies else 0.0

    def note_result(self, elapsed: float, latency: float) -> bool:
        """Account one completed op; returns True when the op violated
        this stream's latency target."""
        self.service_time += max(elapsed, 0.0)
        if self.latency_target is None:
            return False
        if latency > self.latency_target:
            self.slo_violated += 1
            return True
        self.slo_met += 1
        return False

    def reset(self) -> None:
        self.window.reset()
        self.ops.clear()
        self.service_time = 0.0
        self.slo_met = 0
        self.slo_violated = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StreamHandle({self.name!r}, depth={self.queue_depth}, "
                f"weight={self.weight}, ops={len(self.ops)})")


class RequestScheduler:
    """Admits tenant streams of TileOps against one storage system.

    Parameters
    ----------
    executor:
        The owning system; must provide ``_execute_op(op,
        earliest_start) -> SystemOpResult``.
    arbitration:
        ``"fifo"`` drains submissions in global submit order;
        ``"round_robin"`` cycles over streams taking one op each;
        ``"weighted"`` serves the backlogged stream with the smallest
        virtual time (service consumed / weight), so a weight-3 stream
        receives ~3× the service share of a weight-1 co-tenant.
    """

    def __init__(self, executor, arbitration: str = "fifo") -> None:
        if arbitration not in _ARBITRATIONS:
            raise ValueError(
                f"arbitration must be one of {_ARBITRATIONS}, "
                f"got {arbitration!r}")
        self.executor = executor
        self.arbitration = arbitration
        #: the owning system's :class:`~repro.obs.probe.Probe` while
        #: any subscriber is attached, else None: every executed op
        #: gets a parent span (component spans inherit its stream
        #: context), per-op queue-wait / service / latency metrics, an
        #: SLO-violation instant mark and a monitor completion
        #: (observation only — nothing feeds back into scheduling)
        self.probe = None
        self.streams: Dict[str, StreamHandle] = {}
        self.executed: List[TileOp] = []
        self._pending: List[TileOp] = []
        self._next_op_id = 0
        #: the executing op's counter increments, pushed by the
        #: executor's tier, fault injector and cluster layer (wired by
        #: the owning system)
        self.ledger = OpLedger()
        #: per-stream sums of the ledger's fault deltas, plus
        #: ``ops_failed``
        self._fault_totals: Dict[str, Dict[str, int]] = {}
        #: per-stream sums of the ledger's DRAM-tier deltas (empty
        #: unless a cache tier is attached)
        self._cache_totals: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # stream management
    # ------------------------------------------------------------------
    def stream(self, name: str = DEFAULT_STREAM,
               queue_depth: Optional[int] = None,
               weight: Optional[float] = None,
               latency_target: Optional[float] = None) -> StreamHandle:
        """Get or create the stream ``name``.

        ``queue_depth`` is fixed at creation; pass it again only with
        the same value. ``weight`` and ``latency_target`` may be set at
        creation or updated later (the next drain uses the new values).
        """
        handle = self.streams.get(name)
        if handle is None:
            handle = StreamHandle(name, queue_depth,
                                  weight=weight if weight is not None else 1.0,
                                  latency_target=latency_target)
            self.streams[name] = handle
            return handle
        if queue_depth is not None and handle.queue_depth != queue_depth:
            raise ValueError(
                f"stream {name!r} already exists with queue depth "
                f"{handle.queue_depth}, not {queue_depth}")
        if weight is not None:
            if weight <= 0:
                raise ValueError("stream weight must be > 0")
            handle.weight = float(weight)
        if latency_target is not None:
            if latency_target <= 0:
                raise ValueError("latency target must be > 0 seconds")
            handle.latency_target = latency_target
        return handle

    # ------------------------------------------------------------------
    # submission and execution
    # ------------------------------------------------------------------
    def submit(self, op: TileOp) -> TileOp:
        """Queue one op on its stream (created on first use)."""
        self.stream(op.stream)
        op.op_id = self._next_op_id
        self._next_op_id += 1
        op.enqueue_time = op.submit_time
        self._pending.append(op)
        return op

    @property
    def pending(self) -> int:
        return len(self._pending)

    def drain(self) -> List[TileOp]:
        """Execute every pending op in arbitration order; returns the
        executed ops (results attached) in execution order.

        Error policy: an op that raises a typed storage error is
        *consumed* (its fault and cache counters land on its stream),
        the error propagates, and every not-yet-executed op **stays
        pending** — a later ``drain()`` resumes exactly where this one
        stopped.
        """
        executed: List[TileOp] = []
        rotation: List[str] = []
        for op in self._pending:
            if op.stream not in rotation:
                rotation.append(op.stream)
        rr_index = 0
        while self._pending:
            if self.arbitration == "round_robin":
                op, rr_index = self._pick_round_robin(rotation, rr_index)
            elif self.arbitration == "weighted":
                op = self._pick_weighted(rotation)
            else:
                op = self._pending[0]
            # remove *before* executing: a raising op is consumed, the
            # rest of the batch survives for the next drain
            self._pending.remove(op)
            self._run(op)
            executed.append(op)
        return executed

    def _pick_round_robin(self, rotation: List[str], rr_index: int):
        """One op per stream per cycle, streams in first-submission
        order — deterministic for a fixed submission order."""
        for _ in range(len(rotation)):
            name = rotation[rr_index % len(rotation)]
            rr_index += 1
            for op in self._pending:
                if op.stream == name:
                    return op, rr_index
        return self._pending[0], rr_index

    def _pick_weighted(self, rotation: List[str]) -> TileOp:
        """Virtual-time weighted fairness: serve the backlogged stream
        whose accumulated service/weight is smallest (ties broken by
        first-submission order), then charge it the op's actual service
        time. Long-run shares converge to the weight ratios without
        needing per-op costs up front."""
        backlogged = [name for name in rotation
                      if any(op.stream == name for op in self._pending)]
        for op in self._pending:
            if op.stream not in backlogged:
                backlogged.append(op.stream)
        chosen = min(backlogged,
                     key=lambda name: (self.streams[name].virtual_time,
                                       backlogged.index(name)))
        for op in self._pending:
            if op.stream == chosen:
                return op
        raise AssertionError("backlogged stream without a pending op")

    def execute(self, op: TileOp) -> "TileOp":
        """Submit and immediately execute one op (the synchronous
        facade used by ``StorageSystem.read_tile`` et al.). Pending
        batched ops are left untouched."""
        self.stream(op.stream)
        op.op_id = self._next_op_id
        self._next_op_id += 1
        op.enqueue_time = op.submit_time
        self._run(op)
        return op

    def reset(self) -> None:
        """Forget completion history and restart op-id numbering
        (streams and their QoS parameters persist). Pairs with the
        systems' ``reset_time`` between measurement phases; when a
        :class:`~repro.runtime.trace.TraceRecorder` is attached, call
        its ``clear()`` alongside so post-reset op ids (starting again
        at 0) cannot collide with pre-reset spans."""
        for handle in self.streams.values():
            handle.reset()
        self.executed.clear()
        self._pending.clear()
        self._next_op_id = 0
        self._fault_totals.clear()
        self._cache_totals.clear()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stream_report(self) -> Dict[str, Dict[str, object]]:
        """Per-stream aggregate metrics after a drain.

        Always includes op counts, makespan, mean/max/p50/p95/p99/p999
        latency,
        the queue-wait vs service split of that latency (from each op's
        enqueue→issue→complete timestamps), the stream's weight and
        accumulated ``service_time`` plus its ``service_share`` of all
        streams' service; when a latency target is set, an ``slo``
        sub-dict carries the target and the met/violated counts.
        """
        total_service = sum(h.service_time for h in self.streams.values())
        report: Dict[str, Dict[str, object]] = {}
        for name, handle in self.streams.items():
            if not handle.ops:
                continue
            latencies = handle.latencies
            queue_waits = handle.queue_waits
            services = handle.service_times
            entry: Dict[str, object] = {
                "ops": len(handle.ops),
                "makespan": handle.makespan,
                "mean_latency": handle.mean_latency,
                "max_latency": max(latencies) if latencies else 0.0,
                "p50_latency": percentile(latencies, 0.50),
                "p95_latency": percentile(latencies, 0.95),
                "p99_latency": percentile(latencies, 0.99),
                "p999_latency": percentile(latencies, 0.999),
                "mean_queue_wait": (sum(queue_waits) / len(queue_waits)
                                    if queue_waits else 0.0),
                "p95_queue_wait": percentile(queue_waits, 0.95),
                "mean_service": (sum(services) / len(services)
                                 if services else 0.0),
                "p95_service": percentile(services, 0.95),
                "weight": handle.weight,
                "service_time": handle.service_time,
                "service_share": (handle.service_time / total_service
                                  if total_service > 0 else 0.0),
            }
            if handle.latency_target is not None:
                entry["slo"] = {
                    "target": handle.latency_target,
                    "met": handle.slo_met,
                    "violated": handle.slo_violated,
                }
            cache_totals = self._cache_totals.get(name)
            if cache_totals:
                hits = cache_totals.get("hits", 0)
                misses = cache_totals.get("misses", 0)
                cache_entry: Dict[str, object] = dict(cache_totals)
                cache_entry["hit_rate"] = (round(hits / (hits + misses), 6)
                                           if hits + misses else 0.0)
                entry["cache"] = cache_entry
            report[name] = entry
        return report

    def device_report(self) -> Optional[Dict[str, Dict[str, object]]]:
        """Per-device accounting when the executor runs over a device
        pool (None for single-device systems) — sub-op counts, bytes,
        service seconds, degraded reads, rebuilds and migrations keyed
        ``d0``/``d1``/... like the trace and metrics labels."""
        cluster = getattr(self.executor, "cluster", None)
        if cluster is None:
            return None
        return cluster.device_report()

    def stream_fault_report(self) -> Dict[str, Dict[str, int]]:
        """Per-stream fault/retry/error counters accumulated across all
        executed ops (empty when no fault source is attached or nothing
        fired). Keys mirror the injector's counters (and a pool's
        ``cluster_*`` counts), plus ``ops_failed`` for ops that raised
        while the executor had a fault source."""
        return {name: dict(counters)
                for name, counters in self._fault_totals.items() if counters}

    def stream_cache_report(self) -> Dict[str, Dict[str, object]]:
        """Per-stream DRAM-tier counters accumulated across all executed
        ops (empty when no cache tier is attached), each with its
        derived ``hit_rate``."""
        report: Dict[str, Dict[str, object]] = {}
        for name, counters in self._cache_totals.items():
            if not counters:
                continue
            entry: Dict[str, object] = dict(counters)
            hits = counters.get("hits", 0)
            misses = counters.get("misses", 0)
            entry["hit_rate"] = (round(hits / (hits + misses), 6)
                                 if hits + misses else 0.0)
            report[name] = entry
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run(self, op: TileOp) -> None:
        handle = self.streams[op.stream]
        earliest = handle.window.earliest(op.submit_time)
        ledger = self.ledger
        ledger.open()
        probe = self.probe
        if probe is not None:
            probe.op_begin(op.stream, op.op_id)
        result = None
        try:
            result = self.executor._execute_op(op, earliest)
        finally:
            if probe is not None:
                probe.op_end()
            cache, faults = ledger.close()
            # a stream's entry opens at its first op with a counter
            # source attached, not at its first nonzero delta: that
            # fixes the stream order of the reports
            if cache or (result is not None and ledger.cache_sources):
                totals = self._cache_totals.setdefault(op.stream, {})
                for name, delta in cache.items():
                    totals[name] = totals.get(name, 0) + delta
            if faults or ledger.fault_source():
                totals = self._fault_totals.setdefault(op.stream, {})
                for name, delta in faults.items():
                    totals[name] = totals.get(name, 0) + delta
                    if result is not None:
                        result.stats.count(name, delta)
                if result is None:
                    totals["ops_failed"] = totals.get("ops_failed", 0) + 1
        op.result = result
        op.issue_time = result.start_time
        op.complete_time = result.end_time
        handle.window.complete(result.end_time)
        handle.ops.append(op)
        self.executed.append(op)
        violated = handle.note_result(result.end_time - result.start_time,
                                      result.end_time - op.submit_time)
        if probe is not None:
            probe.op_done(op, result, handle.latency_target, violated, cache)
