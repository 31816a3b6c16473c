"""The live monitor: windowed time-series over a deterministic run.

PR 4's metrics registry and critical path answer "where did the time go
*in total*"; the :class:`Monitor` answers "what was happening at *t*,
and why". It divides the run horizon into fixed-width windows (the
shared :data:`~repro.obs.utilization.DEFAULT_WINDOWS` default) and
streams events into per-window accumulators as the simulation executes:

* completed ops from the :class:`~repro.runtime.scheduler.
  RequestScheduler` (windowed queue-wait / service histograms,
  DRAM-tier counter deltas and dirty-set size);
* offered / shed arrivals, admission-queue depth and **logical request
  completions** from the :class:`~repro.traffic.injector.
  OpenLoopInjector` — the request (which may fan out into several
  TileOps) is the unit of goodput, latency and SLO accounting, matching
  the load-line's per-request tails. In scheduler-only runs (no
  injector) each op counts as its own request.

Everything heavier is computed *post-hoc* in :meth:`Monitor.report`
from the trace: windowed critical-path layer attribution (clipping each
op's exact-sum segments into windows, so each window's layer seconds sum
exactly to its attributed service time), per-device busy seconds and GC
share, SLO burn-rate evaluation with deterministic
:class:`~repro.obs.slo.AlertEvent` s (also written into the trace as
instant marks), and the automated bottleneck diagnosis from
:mod:`repro.obs.diagnose`.

The monitor is an *observer*: every hook is an append-only note that
returns nothing into the timing path. With no monitor attached the
hooks are never called; with one attached every timed float is
bit-identical to the unmonitored run — the same discipline as the trace
recorder and metrics registry.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.critical_path import critical_path, span_device
from repro.obs.metrics import Histogram
from repro.obs.slo import SloPolicy
from repro.obs.utilization import DEFAULT_WINDOWS

__all__ = ["Monitor", "monitor_json", "monitor_csv",
           "monitor_prometheus", "format_monitor"]

#: cache counter deltas the monitor tracks per window
_CACHE_KEYS = ("hits", "misses", "writebacks")


class _WindowStats:
    """Accumulators for one monitor window."""

    __slots__ = ("completed", "bad_latency", "offered", "shed",
                 "shed_throttled", "shed_queue_full", "latency",
                 "queue_wait", "service", "backlog_sum", "backlog_count",
                 "backlog_max", "cache", "dirty_bytes", "streams")

    def __init__(self) -> None:
        self.completed = 0
        #: completed ops over the SLO latency bound (0 with no policy)
        self.bad_latency = 0
        self.offered = 0
        self.shed = 0
        self.shed_throttled = 0
        self.shed_queue_full = 0
        #: raw samples, bucketed into histograms only when a series is
        #: rendered (appending is all the per-event hooks pay)
        self.latency: List[float] = []
        self.queue_wait: List[float] = []
        self.service: List[float] = []
        self.backlog_sum = 0
        self.backlog_count = 0
        self.backlog_max = 0
        self.cache: Dict[str, int] = {}
        #: last dirty-set size sampled in this window (-1 = no sample)
        self.dirty_bytes = -1
        #: per-stream [completed, latency_sum, bad, offered, shed]
        self.streams: Dict[str, List[float]] = {}

    def stream_row(self, stream: str) -> List[float]:
        row = self.streams.get(stream)
        if row is None:
            row = self.streams[stream] = [0, 0.0, 0, 0, 0]
        return row


class Monitor:
    """Windowed streaming observer for one deterministic run.

    Attach by passing ``monitor=`` to the
    :class:`~repro.traffic.injector.OpenLoopInjector` (which subscribes
    it to the system's probe), or for scheduler-only runs call
    :meth:`attach` and then ``system.set_monitor(monitor)``. After the
    run, :meth:`report` renders the JSON-ready payload; pass the run's
    trace to add windowed attribution, per-device series, GC share,
    and — with an :class:`~repro.obs.slo.SloPolicy` — burn-rate alerts
    and diagnoses.
    """

    def __init__(self, windows: int = DEFAULT_WINDOWS,
                 slo: Optional[SloPolicy] = None,
                 horizon: Optional[float] = None) -> None:
        if windows < 1:
            raise ValueError("monitor needs at least one window")
        self.windows = windows
        self.slo = slo
        self.horizon = horizon
        self.system = None
        #: True once an injector is feeding :meth:`note_request`; op
        #: completions then stop double-counting as requests
        self.request_driven = False
        self._stats: Optional[List[_WindowStats]] = None
        # hot-path caches: window width and the system's dirty-byte
        # probe are resolved once so per-event hooks stay cheap
        self._width: Optional[float] = None
        self._dirty_probe = None
        if horizon is not None:
            self._init_windows(horizon)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _init_windows(self, horizon: float) -> None:
        if horizon <= 0:
            raise ValueError("monitor horizon must be > 0 seconds")
        self.horizon = float(horizon)
        self._width = self.horizon / self.windows
        self._stats = [_WindowStats() for _ in range(self.windows)]

    def attach(self, system, horizon: Optional[float] = None,
               request_driven: bool = False) -> "Monitor":
        """Bind to ``system`` (for cache dirty-byte sampling) and fix
        the horizon if not already set. Idempotent; the injector calls
        this at the start of every run with ``request_driven=True`` so
        completions are counted per logical request, not per op."""
        self.system = system
        probe = getattr(system, "cache_dirty_bytes", None)
        # a system with no DRAM tier reports None forever — disable the
        # per-op probe outright rather than re-asking every completion
        self._dirty_probe = probe if (probe is not None
                                      and probe() is not None) else None
        if request_driven:
            self.request_driven = True
        if self._stats is None:
            if horizon is None:
                raise ValueError("monitor needs a horizon (constructor "
                                 "or attach)")
            self._init_windows(horizon)
        return self

    @property
    def window_seconds(self) -> float:
        if self.horizon is None:
            raise ValueError("monitor horizon not set")
        return self.horizon / self.windows

    def window_of(self, time: float) -> int:
        """Window index containing model time ``time``; events past the
        horizon (open-loop backlog tails) land in the last window."""
        width = self._width
        if width is None:
            width = self.window_seconds  # raises if horizon unset
        if time <= 0:
            return 0
        return min(int(time / width), self.windows - 1)

    def _window_ending_at(self, boundary: float) -> int:
        """Window whose right edge is ``boundary`` (replay of windowed
        marks: counts at a boundary belong to the window that ended)."""
        width = self.window_seconds
        index = int(round(boundary / width)) - 1
        return max(0, min(index, self.windows - 1))

    def _require(self) -> List[_WindowStats]:
        if self._stats is None:
            raise ValueError("monitor not attached (no horizon)")
        return self._stats

    def _window(self, time: float) -> _WindowStats:
        """Accumulator of the window holding model time ``time`` (the
        :meth:`window_of` rule)."""
        stats = self._require()
        if time <= 0:
            return stats[0]
        index = int(time / self._width)
        return stats[index] if index < self.windows else stats[-1]

    # ------------------------------------------------------------------
    # streaming hooks (observation only — never feed back into timing)
    # ------------------------------------------------------------------
    def _count_request(self, stream: str, arrival: float,
                       finish: float, violated: bool = False) -> None:
        stats = self._window(finish)
        latency = finish - arrival
        stats.completed += 1
        stats.latency.append(latency)
        bad = (latency > self.slo.latency_target
               if self.slo is not None else bool(violated))
        if bad:
            stats.bad_latency += 1
        row = stats.stream_row(stream)
        row[0] += 1
        row[1] += latency
        row[2] += 1 if bad else 0

    def note_request(self, stream: str, arrival: float,
                     finish: float) -> None:
        """One completed logical request (called by the injector after
        all of the request's ops finished)."""
        self._count_request(stream, arrival, finish)

    def note_op(self, op, violated: bool = False,
                cache: Optional[dict] = None) -> None:
        """One completed :class:`~repro.runtime.tileop.TileOp` (called
        by the scheduler after accounting). Feeds the op-granular
        queue-wait / service histograms and cache sampling; in a
        scheduler-only run (no injector) it also counts the op as a
        completed request."""
        finish = op.complete_time
        stats = self._window(finish)
        stats.queue_wait.append(op.issue_time - op.submit_time)
        stats.service.append(finish - op.issue_time)
        if not self.request_driven:
            self._count_request(op.stream, op.submit_time, finish,
                                violated=violated)
        if cache:
            for key in _CACHE_KEYS:
                delta = cache.get(key)
                if delta:
                    stats.cache[key] = stats.cache.get(key, 0) + delta
        if self._dirty_probe is not None:
            dirty = self._dirty_probe()
            if dirty is not None:
                stats.dirty_bytes = dirty

    def note_offered(self, stream: str, time: float) -> None:
        stats = self._window(time)
        stats.offered += 1
        stats.stream_row(stream)[3] += 1

    def note_shed(self, stream: str, time: float, reason: str) -> None:
        stats = self._window(time)
        stats.shed += 1
        if reason == "throttled":
            stats.shed_throttled += 1
        else:
            stats.shed_queue_full += 1
        stats.stream_row(stream)[4] += 1

    def note_backlog(self, stream: str, time: float, depth: int) -> None:
        stats = self._window(time)
        stats.backlog_sum += depth
        stats.backlog_count += 1
        if depth > stats.backlog_max:
            stats.backlog_max = depth

    # ------------------------------------------------------------------
    # trace replay
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace, windows: int = DEFAULT_WINDOWS,
                   slo: Optional[SloPolicy] = None,
                   horizon: Optional[float] = None) -> "Monitor":
        """Rebuild a monitor from a saved trace (``--trace`` replay).

        Op events are exact (every op span carries its ``queue_wait``
        and ``submit``); ops sharing a (stream, submit time) pair are
        regrouped into the logical request they came from, so replay
        counts requests like the live injector does. Offered/shed
        counts come from the injector's windowed ``offered_load``
        marks, attributed to the window each mark closed — per-arrival
        resolution is not recoverable from a trace, so replay offered
        series are as coarse as the run's ``marks`` setting.
        """
        if horizon is None:
            horizon = max((s.end for s in trace.spans), default=0.0)
        monitor = cls(windows=windows, slo=slo, horizon=horizon)
        monitor.request_driven = True
        # (stream, submit) -> [arrival, finish]; ops without a submit
        # arg (pre-monitor traces) fall back to one request per op
        requests: Dict[tuple, List[float]] = {}
        fallback = 0
        for span in trace.spans:
            if span.instant or span.resource != "ops":
                continue
            args = dict(span.args)
            queue_wait = float(args.get("queue_wait", 0.0))
            stats = monitor._window(span.end)
            stats.queue_wait.append(queue_wait)
            stats.service.append(span.end - span.start)
            submit = args.get("submit")
            if submit is None:
                key = (span.stream, fallback)
                fallback += 1
                submit = span.start - queue_wait
            else:
                key = (span.stream, float(submit))
            entry = requests.setdefault(key, [float(submit), 0.0])
            entry[1] = max(entry[1], span.end)
        for (stream, _), (arrival, finish) in requests.items():
            monitor._count_request(stream, arrival, finish)
        for mark in trace.instants():
            if mark.name != "offered_load":
                continue
            args = dict(mark.args)
            stats = monitor._require()[
                monitor._window_ending_at(mark.start)]
            offered = int(args.get("offered", 0))
            shed = int(args.get("shed", 0))
            stats.offered += offered
            stats.shed += shed
            row = stats.stream_row(mark.stream)
            row[3] += offered
            row[4] += shed
        for sample in trace.counters("dirty_bytes"):
            args = dict(sample.args)
            stats = monitor._require()[
                monitor._window_ending_at(sample.start)]
            stats.dirty_bytes = int(args.get("dirty_bytes", 0))
        return monitor

    # ------------------------------------------------------------------
    # post-hoc analysis
    # ------------------------------------------------------------------
    def _clip(self, lo: float, hi: float, into: List[Dict[str, float]],
              key: str) -> None:
        """Add interval ``[lo, hi)`` into per-window buckets under
        ``key`` (overflow past the horizon lands in the last window)."""
        if hi <= lo:
            return
        width = self.window_seconds
        first = self.window_of(lo)
        last = self.window_of(hi)
        for index in range(first, last + 1):
            win_lo = index * width
            win_hi = win_lo + width if index < self.windows - 1 else hi
            overlap = min(hi, win_hi) - max(lo, win_lo)
            if overlap > 0:
                row = into[index]
                row[key] = row.get(key, 0.0) + overlap

    def windowed_attribution(self, trace) -> Dict[str, object]:
        """Critical-path layer seconds per window.

        Each op's exact-sum segments (see
        :func:`~repro.obs.critical_path.attribute_op`) are clipped at
        window boundaries; a window's ``attributed_seconds`` is defined
        as the sum of its layer values, so the PR-4 partition
        discipline carries over to every window exactly.
        """
        analysis = critical_path(trace)
        rows: List[Dict[str, float]] = [{} for _ in range(self.windows)]
        for op in analysis.ops:
            for seg_lo, seg_hi, layer in op.segments:
                self._clip(seg_lo, seg_hi, rows, layer)
        return {
            "layers": [dict(sorted(row.items())) for row in rows],
            "attributed_seconds": [sum(row[key] for key in sorted(row))
                                   for row in rows],
        }

    def device_series(self, trace) -> Dict[str, object]:
        """Per-device busy seconds and GC seconds per window.

        Busy seconds sum raw component-span durations per device (the
        work inventory, like
        :func:`~repro.obs.critical_path.device_layer_totals`); GC
        seconds clip each collection's ``[start, start+duration)`` from
        its instant mark. Spans with no ``dN:`` prefix land under
        ``"host"`` — on a single-device run that is the device.
        """
        busy: Dict[str, List[Dict[str, float]]] = {}
        gc: Dict[str, List[Dict[str, float]]] = {}

        def rows_for(table, key):
            rows = table.get(key)
            if rows is None:
                rows = table[key] = [{} for _ in range(self.windows)]
            return rows

        for span in trace.spans:
            device = span_device(span.resource)
            key = "host" if device is None else f"d{device}"
            if span.counter:
                continue
            if span.instant:
                if span.name != "gc":
                    continue
                args = dict(span.args)
                start = float(args.get("start", span.start))
                duration = float(args.get("duration", 0.0))
                self._clip(start, start + duration, rows_for(gc, key), "gc")
                continue
            if span.resource == "ops":
                continue
            self._clip(span.start, span.end, rows_for(busy, key), "busy")
        return {
            "busy_seconds": {
                key: [row.get("busy", 0.0) for row in rows]
                for key, rows in sorted(busy.items())},
            "gc_seconds": {
                key: [row.get("gc", 0.0) for row in rows]
                for key, rows in sorted(gc.items())},
        }

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def series(self) -> Dict[str, object]:
        """The streamed per-window series (JSON-ready)."""
        stats = self._require()
        width = self.window_seconds

        def hist_series(kind: str):
            hists = []
            for window in stats:
                hist = Histogram(kind)
                hist.observe_all(getattr(window, kind))
                hists.append(hist)
            return {
                "p50": [h.quantile(0.50) for h in hists],
                "p99": [h.quantile(0.99) for h in hists],
                "mean": [h.mean for h in hists],
            }

        streams = sorted({name for s in stats for name in s.streams})
        per_stream: Dict[str, object] = {}
        for name in streams:
            rows = [s.streams.get(name, [0, 0.0, 0, 0, 0]) for s in stats]
            per_stream[name] = {
                "completed": [int(r[0]) for r in rows],
                "mean_latency": [r[1] / r[0] if r[0] else 0.0
                                 for r in rows],
                "bad": [int(r[2]) for r in rows],
                "offered": [int(r[3]) for r in rows],
                "shed": [int(r[4]) for r in rows],
            }
        return {
            "windows": self.windows,
            "window_seconds": width,
            "horizon": self.horizon,
            "completed": [s.completed for s in stats],
            "offered": [s.offered for s in stats],
            "shed": [s.shed for s in stats],
            "shed_throttled": [s.shed_throttled for s in stats],
            "shed_queue_full": [s.shed_queue_full for s in stats],
            "goodput_rps": [s.completed / width for s in stats],
            "offered_rps": [s.offered / width for s in stats],
            "shed_rate": [s.shed / s.offered if s.offered else 0.0
                          for s in stats],
            "latency": hist_series("latency"),
            "queue_wait": hist_series("queue_wait"),
            "service": hist_series("service"),
            "backlog_mean": [s.backlog_sum / s.backlog_count
                             if s.backlog_count else 0.0 for s in stats],
            "backlog_max": [s.backlog_max for s in stats],
            "cache": {
                key: [s.cache.get(key, 0) for s in stats]
                for key in _CACHE_KEYS},
            "cache_hit_rate": [
                (s.cache.get("hits", 0)
                 / (s.cache.get("hits", 0) + s.cache.get("misses", 0)))
                if s.cache.get("hits", 0) + s.cache.get("misses", 0)
                else 0.0 for s in stats],
            "dirty_bytes": [s.dirty_bytes for s in stats],
            "streams": per_stream,
        }

    def slo_section(self) -> Optional[Dict[str, object]]:
        """Burn-rate evaluation of the streamed windows (None with no
        policy attached). Bad = SLO-slow completions + sheds; total =
        completions + sheds."""
        if self.slo is None:
            return None
        stats = self._require()
        bad = [s.bad_latency + s.shed for s in stats]
        total = [s.completed + s.shed for s in stats]
        return self.slo.evaluate(bad, total, self.window_seconds)

    def report(self, trace=None) -> Dict[str, object]:
        """The full monitor payload: streamed series, SLO evaluation
        with alerts, and — when the run's trace is supplied — windowed
        attribution, per-device series, and per-alert diagnoses.
        Alerts are also written into the trace as instant marks."""
        payload: Dict[str, object] = {"series": self.series()}
        slo = self.slo_section()
        if slo is not None:
            payload["slo"] = slo
            payload["policy"] = self.slo.to_dict()
        if trace is not None:
            payload["attribution"] = self.windowed_attribution(trace)
            payload["devices"] = self.device_series(trace)
            if slo is not None:
                for alert in slo["alerts"]:
                    trace.instant(
                        "alerts", alert["time"], name="slo_alert",
                        stream="main", op_id=-1, rule=alert["rule"],
                        window=alert["window"],
                        burn_long=alert["burn_long"],
                        burn_short=alert["burn_short"])
        if slo is not None and slo["alerts"]:
            from repro.obs.diagnose import diagnose_report
            payload["diagnoses"] = diagnose_report(payload)
        return payload


# ----------------------------------------------------------------------
# renderings
# ----------------------------------------------------------------------
def monitor_json(payload: Dict[str, object]) -> str:
    """Byte-stable JSON rendering (sorted keys, fixed separators)."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def monitor_csv(payload: Dict[str, object]) -> str:
    """Tidy CSV: one row per (window, series) cell."""
    series = payload["series"]
    width = series["window_seconds"]
    lines = ["window,window_start_s,series,value"]

    def emit(name: str, values) -> None:
        for index, value in enumerate(values):
            lines.append(f"{index},{index * width:.9g},{name},{value:.9g}")

    for key in ("completed", "offered", "shed", "goodput_rps",
                "offered_rps", "shed_rate", "backlog_mean", "backlog_max",
                "cache_hit_rate", "dirty_bytes"):
        emit(key, series[key])
    for key in ("latency", "queue_wait", "service"):
        for stat in ("p50", "p99", "mean"):
            emit(f"{key}_{stat}", series[key][stat])
    attribution = payload.get("attribution")
    if attribution:
        emit("attributed_seconds", attribution["attributed_seconds"])
    slo = payload.get("slo")
    if slo:
        emit("burn", slo["burn"])
    return "\n".join(lines) + "\n"


def monitor_prometheus(payload: Dict[str, object],
                       prefix: str = "repro_monitor") -> str:
    """Prometheus exposition with explicit timestamps: one sample per
    window per series, stamped at the window's right edge in model-time
    milliseconds — load it into any TSDB and the run replays as if it
    had been scraped live."""
    series = payload["series"]
    width = series["window_seconds"]
    lines: List[str] = []

    def emit(name: str, values, kind: str = "gauge") -> None:
        metric = f"{prefix}_{name}"
        lines.append(f"# TYPE {metric} {kind}")
        for index, value in enumerate(values):
            stamp = int(round((index + 1) * width * 1000))
            lines.append(f"{metric} {float(value)!r} {stamp}")

    for key in ("goodput_rps", "offered_rps", "shed_rate",
                "backlog_mean", "cache_hit_rate", "dirty_bytes"):
        emit(key, series[key])
    for key in ("latency", "queue_wait", "service"):
        for stat in ("p50", "p99"):
            emit(f"{key}_{stat}_seconds", series[key][stat])
    slo = payload.get("slo")
    if slo:
        emit("slo_burn", slo["burn"])
    return "\n".join(lines) + ("\n" if lines else "")


def _sparkline(values, lo: float = 0.0,
               hi: Optional[float] = None) -> str:
    marks = " .:-=+*#%@"
    if hi is None:
        hi = max(values) if values else 0.0
    if hi <= lo:
        return " " * len(values)
    out = []
    for value in values:
        frac = (value - lo) / (hi - lo)
        out.append(marks[max(0, min(len(marks) - 1,
                                    int(frac * (len(marks) - 1) + 0.5)))])
    return "".join(out)


def format_monitor(payload: Dict[str, object]) -> str:
    """Human-readable timeline: one sparkline row per series, the SLO
    burn row, alert lines, and each alert's diagnosis summary."""
    series = payload["series"]
    width = series["window_seconds"]
    lines = [f"monitor: {series['windows']} windows x "
             f"{width * 1e3:.3g} ms (horizon {series['horizon']:.3g} s)"]

    def row(label: str, values, fmt=lambda v: f"{v:.3g}") -> None:
        peak = max(values) if values else 0.0
        lines.append(f"  {label:>14} |{_sparkline(values)}| "
                     f"peak {fmt(peak)}")

    row("offered rps", series["offered_rps"])
    row("goodput rps", series["goodput_rps"])
    row("shed rate", series["shed_rate"], lambda v: f"{v:.1%}")
    row("latency p99", series["latency"]["p99"],
        lambda v: f"{v * 1e3:.3g} ms")
    row("queue wait p99", series["queue_wait"]["p99"],
        lambda v: f"{v * 1e3:.3g} ms")
    row("backlog", series["backlog_mean"])
    if any(v >= 0 for v in series["dirty_bytes"]):
        row("dirty bytes", [max(v, 0) for v in series["dirty_bytes"]])
    if any(series["cache_hit_rate"]):
        row("cache hits", series["cache_hit_rate"],
            lambda v: f"{v:.1%}")
    devices = payload.get("devices")
    if devices:
        for name, values in devices["busy_seconds"].items():
            row(f"{name} busy", values, lambda v: f"{v * 1e3:.3g} ms")
        for name, values in devices["gc_seconds"].items():
            if any(values):
                row(f"{name} gc", values, lambda v: f"{v * 1e3:.3g} ms")
    slo = payload.get("slo")
    if slo:
        row("slo burn", slo["burn"], lambda v: f"{v:.3g}x")
        alerts = slo["alerts"]
        lines.append(f"  alerts: {len(alerts)}")
        diagnoses = {d["alert"]["window"]: d
                     for d in payload.get("diagnoses", [])}
        for alert in alerts:
            lines.append(
                f"    [{alert['rule']}] window {alert['window']} at "
                f"t={alert['time']:.3g}s: burn {alert['burn_long']:.1f}x "
                f"(threshold {alert['threshold']:.1f}x)")
            diagnosis = diagnoses.get(alert["window"])
            if diagnosis is not None:
                lines.append(f"      {diagnosis['summary']}")
    return "\n".join(lines) + "\n"
