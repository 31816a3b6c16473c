"""Open-loop injection of arrival-driven traffic into the request spine.

A :class:`TrafficStream` binds one tenant to an arrival process and a
request factory; the :class:`OpenLoopInjector` replays the merged
arrival schedule against one storage system. Each admitted request is
executed through the system's
:class:`~repro.runtime.scheduler.RequestScheduler` on an **ungated**
stream at its arrival timestamp — *not* completion-gated, so when
arrivals outpace service capacity the shared resource timelines back
up and latencies grow without bound. That is the defining open-loop
property; closed-loop harnesses (bounded queue depth) silently slow
their own offered load down at saturation and under-report tails
(coordinated omission).

Admission control sits in front of the spine:

* a per-stream :class:`TokenBucket` rate-limits admissions (requests
  above the configured rate are shed with reason
  :data:`SHED_THROTTLED`);
* a bounded **admission queue** sheds when too many admitted requests
  are still in flight at a new arrival (:data:`SHED_QUEUE_FULL`) —
  the backpressure a real frontend applies instead of queueing
  unboundedly.

Every shed is a typed :class:`ShedRecord`; per-stream totals, goodput
and latency tails (p50/p99/p999) land in :class:`StreamTrafficReport`.
The injector emits through the system's :class:`~repro.obs.probe.Probe`:
a metrics registry counts ``traffic.offered`` / ``traffic.admitted`` /
``traffic.shed_throttled`` / ``traffic.shed_queue_full`` /
``traffic.failed`` and observes ``traffic.backlog``; a trace recorder
gets ``offered_load`` instant marks per reporting window; a live
monitor gets every arrival, shed and completed request. None feeds
back into timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.faults.errors import FaultError
from repro.runtime.scheduler import percentile
from repro.runtime.tileop import TileOp
from repro.traffic.arrivals import ArrivalProcess

__all__ = ["TokenBucket", "TrafficStream", "ShedRecord",
           "StreamTrafficReport", "TrafficRunResult", "OpenLoopInjector",
           "SHED_THROTTLED", "SHED_QUEUE_FULL"]

#: shed reasons (typed accounting; every shed carries exactly one)
SHED_THROTTLED = "throttled"
SHED_QUEUE_FULL = "queue_full"

#: a request factory maps (sequence index, arrival time) to the TileOp
#: — or ops — that one logical request performs
RequestFactory = Callable[[int, float], Union[TileOp, Sequence[TileOp]]]


class TokenBucket:
    """Deterministic token-bucket rate limiter.

    ``rate`` tokens/second refill continuously up to ``burst``;
    ``take(now)`` consumes one token if available. ``rate=None``
    disables throttling entirely.
    """

    def __init__(self, rate: Optional[float] = None,
                 burst: float = 1.0) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("token rate must be > 0 (or None)")
        if burst < 1.0:
            raise ValueError("burst must allow at least one token")
        self.rate = rate
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = 0.0

    def take(self, now: float) -> bool:
        """Consume one token at model time ``now`` (monotone calls)."""
        if self.rate is None:
            return True
        if now > self._last:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class TrafficStream:
    """One tenant's open-loop traffic specification.

    Parameters
    ----------
    name:
        The scheduler stream the requests execute on.
    arrivals:
        The seeded :class:`~repro.traffic.arrivals.ArrivalProcess`.
    request_ops:
        ``(seq, time) -> TileOp | [TileOp]`` — the ops one logical
        request performs (e.g. one pooled embedding lookup = several
        row reads). Called exactly once per *admitted* request, in
        arrival order, so seeded factories stay deterministic even
        when admission control sheds.
    token_rate:
        Token-bucket admission, one-token burst (None = no throttle).
    admission_queue:
        Maximum admitted-but-incomplete requests; an arrival beyond
        the bound is shed (None = unbounded).
    weight / latency_target:
        Passed through to the scheduler stream (QoS accounting).
    """

    def __init__(self, name: str, arrivals: ArrivalProcess,
                 request_ops: RequestFactory, *,
                 token_rate: Optional[float] = None,
                 admission_queue: Optional[int] = None,
                 weight: float = 1.0,
                 latency_target: Optional[float] = None) -> None:
        if admission_queue is not None and admission_queue < 1:
            raise ValueError("admission queue bound must be >= 1 (or None)")
        self.name = name
        self.arrivals = arrivals
        self.request_ops = request_ops
        self.token_rate = token_rate
        self.admission_queue = admission_queue
        self.weight = weight
        self.latency_target = latency_target


@dataclass(frozen=True)
class ShedRecord:
    """One rejected request (typed backpressure accounting)."""

    time: float
    stream: str
    seq: int
    reason: str  # SHED_THROTTLED or SHED_QUEUE_FULL


@dataclass
class StreamTrafficReport:
    """One tenant's open-loop outcome."""

    stream: str
    #: requests generated by the arrival process inside the horizon
    offered: int = 0
    admitted: int = 0
    shed_throttled: int = 0
    shed_queue_full: int = 0
    #: admitted requests that raised a typed storage fault
    failed: int = 0
    #: admitted requests that completed
    completed: int = 0
    #: TileOps executed (>= completed when requests fan out)
    ops: int = 0
    useful_bytes: int = 0
    #: last completion time of this stream (0.0 when nothing completed)
    makespan: float = 0.0
    #: mean offered arrival rate over the horizon
    offered_rate: float = 0.0
    #: completed requests / max(horizon, makespan)
    goodput_rps: float = 0.0
    goodput_bytes_per_second: float = 0.0
    #: request latencies (arrival -> last op completion)
    mean_latency: float = 0.0
    p50_latency: float = 0.0
    p95_latency: float = 0.0
    p99_latency: float = 0.0
    p999_latency: float = 0.0
    max_latency: float = 0.0
    #: scheduler-level queue-wait vs service split of those latencies
    mean_queue_wait: float = 0.0
    p99_queue_wait: float = 0.0
    mean_service: float = 0.0
    p99_service: float = 0.0
    latencies: List[float] = field(repr=False, default_factory=list)

    @property
    def shed(self) -> int:
        return self.shed_throttled + self.shed_queue_full

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (byte-stable: plain floats and ints)."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed_throttled": self.shed_throttled,
            "shed_queue_full": self.shed_queue_full,
            "shed_rate": self.shed_rate,
            "failed": self.failed,
            "completed": self.completed,
            "ops": self.ops,
            "useful_bytes": self.useful_bytes,
            "makespan": self.makespan,
            "offered_rate": self.offered_rate,
            "goodput_rps": self.goodput_rps,
            "goodput_bytes_per_second": self.goodput_bytes_per_second,
            "mean_latency": self.mean_latency,
            "p50_latency": self.p50_latency,
            "p95_latency": self.p95_latency,
            "p99_latency": self.p99_latency,
            "p999_latency": self.p999_latency,
            "max_latency": self.max_latency,
            "mean_queue_wait": self.mean_queue_wait,
            "p99_queue_wait": self.p99_queue_wait,
            "mean_service": self.mean_service,
            "p99_service": self.p99_service,
        }


@dataclass
class TrafficRunResult:
    """Outcome of one open-loop injection run."""

    horizon: float
    streams: Dict[str, StreamTrafficReport]
    sheds: List[ShedRecord] = field(repr=False, default_factory=list)

    @property
    def offered(self) -> int:
        return sum(s.offered for s in self.streams.values())

    @property
    def admitted(self) -> int:
        return sum(s.admitted for s in self.streams.values())

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.streams.values())

    @property
    def makespan(self) -> float:
        return max((s.makespan for s in self.streams.values()), default=0.0)

    @property
    def goodput_rps(self) -> float:
        span = max(self.horizon, self.makespan)
        return self.completed / span if span > 0 else 0.0

    @property
    def goodput_bytes_per_second(self) -> float:
        span = max(self.horizon, self.makespan)
        total = sum(s.useful_bytes for s in self.streams.values())
        return total / span if span > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "horizon": self.horizon,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "makespan": self.makespan,
            "goodput_rps": self.goodput_rps,
            "goodput_bytes_per_second": self.goodput_bytes_per_second,
            "streams": {name: report.to_dict()
                        for name, report in sorted(self.streams.items())},
        }


class OpenLoopInjector:
    """Replays merged arrival schedules against one storage system.

    The injector is an *admission frontend*: it never adds model time
    of its own, so the timing a request experiences is exactly what the
    spine's shared timelines charge — admission decisions and shed
    accounting are free, like the scheduler's sequencing.

    ``marks`` > 0 splits the horizon into that many reporting windows;
    at each boundary an ``offered_load`` instant mark (per stream:
    offered / admitted / shed counts in the window) lands in the trace.
    """

    def __init__(self, system, streams: Sequence[TrafficStream],
                 horizon: float, trace=None, metrics=None,
                 marks: int = 0, monitor=None) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be > 0 seconds")
        if marks < 0:
            raise ValueError("marks must be >= 0")
        names = [s.name for s in streams]
        if len(set(names)) != len(names):
            raise ValueError("traffic streams must have distinct names")
        if not streams:
            raise ValueError("need at least one traffic stream")
        self.system = system
        self.streams = list(streams)
        self.horizon = float(horizon)
        self.trace = trace
        self.metrics = metrics
        self.marks = marks
        #: optional :class:`~repro.obs.monitor.Monitor`; :meth:`run`
        #: subscribes it (like ``trace`` and ``metrics``) to the
        #: system's probe, which feeds it arrival / admission / shed
        #: events and op completions. Observation only — it never feeds
        #: back into admission or timing.
        self.monitor = monitor

    # ------------------------------------------------------------------
    def run(self) -> TrafficRunResult:
        system = self.system
        if self.trace is not None:
            system.set_trace(self.trace)
        if self.metrics is not None:
            system.set_metrics(self.metrics)
        if self.monitor is not None:
            self.monitor.attach(system, horizon=self.horizon,
                                request_driven=True)
            system.set_monitor(self.monitor)
        scheduler = system.scheduler
        probe = scheduler.probe

        # merged arrival schedule: (time, stream index, per-stream seq);
        # stream order breaks exact-time ties deterministically
        schedule: List[tuple] = []
        for index, stream in enumerate(self.streams):
            scheduler.stream(stream.name, None, weight=stream.weight,
                             latency_target=stream.latency_target)
            for seq, time in enumerate(stream.arrivals.times(self.horizon)):
                schedule.append((time, index, seq))
        schedule.sort()

        buckets = [TokenBucket(s.token_rate) for s in self.streams]
        backlogs: List[List[float]] = [[] for _ in self.streams]
        reports = {s.name: StreamTrafficReport(stream=s.name)
                   for s in self.streams}
        sheds: List[ShedRecord] = []
        window = self.horizon / self.marks if self.marks else None
        window_end = window if window is not None else None
        window_counts: Dict[str, List[int]] = {
            s.name: [0, 0, 0] for s in self.streams}  # offered/admitted/shed

        def flush_marks(boundary: float) -> None:
            if probe is None:
                return
            for index, stream in enumerate(self.streams):
                offered, admitted, shed = window_counts[stream.name]
                probe.instant("traffic", boundary, "offered_load",
                              stream=stream.name, op_id=-1, offered=offered,
                              admitted=admitted, shed=shed)
                # Perfetto counter tracks alongside the spans
                probe.counter("counters", boundary, "queue_depth",
                              stream=stream.name,
                              depth=len(backlogs[index]))
                probe.counter("counters", boundary, "offered",
                              stream=stream.name, offered=offered,
                              shed=shed)
                window_counts[stream.name] = [0, 0, 0]
            dirty = system.cache_dirty_bytes()
            if dirty is not None:
                probe.counter("counters", boundary, "dirty_bytes",
                              stream="main", dirty_bytes=dirty)

        for time, index, seq in schedule:
            stream = self.streams[index]
            report = reports[stream.name]
            counts = window_counts[stream.name]
            while window_end is not None and time >= window_end:
                flush_marks(window_end)
                window_end += window
            report.offered += 1
            counts[0] += 1
            if probe is not None:
                probe.offered(stream.name, time)
            # admission control, in frontend order: throttle, then queue
            if not buckets[index].take(time):
                report.shed_throttled += 1
                counts[2] += 1
                sheds.append(ShedRecord(time, stream.name, seq,
                                        SHED_THROTTLED))
                if probe is not None:
                    probe.shed(stream.name, time, SHED_THROTTLED)
                continue
            backlog = backlogs[index]
            while backlog and backlog[0] <= time:
                heappop(backlog)
            if probe is not None:
                probe.backlog(stream.name, time, len(backlog))
            if (stream.admission_queue is not None
                    and len(backlog) >= stream.admission_queue):
                report.shed_queue_full += 1
                counts[2] += 1
                sheds.append(ShedRecord(time, stream.name, seq,
                                        SHED_QUEUE_FULL))
                if probe is not None:
                    probe.shed(stream.name, time, SHED_QUEUE_FULL)
                continue
            report.admitted += 1
            counts[1] += 1
            if probe is not None:
                probe.count("traffic.admitted")
            ops = stream.request_ops(seq, time)
            if isinstance(ops, TileOp):
                ops = [ops]
            finish = time
            failed = False
            for op in ops:
                op.stream = stream.name
                op.submit_time = time
                try:
                    scheduler.execute(op)
                except FaultError:
                    failed = True
                    break
                report.ops += 1
                report.useful_bytes += op.result.useful_bytes
                finish = max(finish, op.complete_time)
            heappush(backlog, finish)
            if failed:
                report.failed += 1
                if probe is not None:
                    probe.count("traffic.failed")
                continue
            report.completed += 1
            report.makespan = max(report.makespan, finish)
            report.latencies.append(finish - time)
            if probe is not None:
                probe.request_done(stream.name, time, finish)
        if window_end is not None:
            flush_marks(window_end)

        self._summarize(scheduler, reports)
        return TrafficRunResult(horizon=self.horizon, streams=reports,
                                sheds=sheds)

    # ------------------------------------------------------------------
    def _summarize(self, scheduler,
                   reports: Dict[str, StreamTrafficReport]) -> None:
        for name, report in reports.items():
            report.offered_rate = report.offered / self.horizon
            span = max(self.horizon, report.makespan)
            report.goodput_rps = report.completed / span if span else 0.0
            report.goodput_bytes_per_second = (
                report.useful_bytes / span if span else 0.0)
            latencies = report.latencies
            if latencies:
                report.mean_latency = sum(latencies) / len(latencies)
                report.p50_latency = percentile(latencies, 0.50)
                report.p95_latency = percentile(latencies, 0.95)
                report.p99_latency = percentile(latencies, 0.99)
                report.p999_latency = percentile(latencies, 0.999)
                report.max_latency = max(latencies)
            handle = scheduler.streams.get(name)
            if handle is None:
                continue
            waits = handle.queue_waits
            services = handle.service_times
            if waits:
                report.mean_queue_wait = sum(waits) / len(waits)
                report.p99_queue_wait = percentile(waits, 0.99)
            if services:
                report.mean_service = sum(services) / len(services)
                report.p99_service = percentile(services, 0.99)
