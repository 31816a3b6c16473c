"""Per-layer span recording with Chrome ``trace_event`` export.

A recorder subscribes to a system's :class:`~repro.obs.probe.Probe`
(``system.set_trace``); every timed component (link, host CPU, SSD
controller pipeline, flash channels/banks, I/O engine) then emits one
span per resource reservation through the probe: STL translation, FTL
mapping, channel/bank occupancy, link transfers, host copies. The
scheduler wraps each executed :class:`~repro.runtime.tileop.TileOp` in
a parent span, so component spans nest inside the op that caused them.

Export targets ``chrome://tracing`` / Perfetto: complete events
(``"ph": "X"``) with microsecond timestamps, one process per tenant
stream and one thread per resource. :meth:`TraceRecorder.
resource_metrics` aggregates the same spans into per-resource busy
time / span counts for quick reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["TraceSpan", "TraceRecorder"]


@dataclass(frozen=True)
class TraceSpan:
    """One half-open busy interval ``[start, end)`` on one resource.

    ``instant=True`` marks a point event (SLO violation, fault mark):
    ``start == end`` and the Chrome export uses an instant event."""

    name: str
    resource: str
    stream: str
    start: float
    end: float
    op_id: int = -1
    args: Tuple[Tuple[str, Union[int, float, str]], ...] = ()
    instant: bool = False
    #: ``counter=True`` marks a Chrome counter sample (``"ph": "C"``):
    #: ``args`` holds the numeric series values at ``start``. Counter
    #: spans are also ``instant`` so every busy-time consumer
    #: (utilization, critical path, resource metrics) skips them.
    counter: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceRecorder:
    """Collects spans; exports Chrome trace JSON and resource metrics."""

    def __init__(self) -> None:
        self.spans: List[TraceSpan] = []
        #: (stream, op_id, label) context stack maintained by the
        #: scheduler while an op executes; component spans recorded with
        #: no explicit context inherit the innermost frame.
        self._context: List[Tuple[str, int]] = []

    # ------------------------------------------------------------------
    # context management (scheduler side)
    # ------------------------------------------------------------------
    def push_op(self, stream: str, op_id: int) -> None:
        self._context.append((stream, op_id))

    def pop_op(self) -> None:
        self._context.pop()

    @property
    def current_stream(self) -> str:
        return self._context[-1][0] if self._context else "main"

    @property
    def current_op(self) -> int:
        return self._context[-1][1] if self._context else -1

    # ------------------------------------------------------------------
    # recording (component side)
    # ------------------------------------------------------------------
    def span(self, resource: str, start: float, end: float,
             name: Optional[str] = None, **args) -> None:
        """Record one busy interval on ``resource``; the current op
        context tags the span with its tenant stream and op id."""
        if end < start:
            raise ValueError(f"span on {resource!r} ends before it starts")
        self.spans.append(TraceSpan(
            name=name if name is not None else resource,
            resource=resource, stream=self.current_stream,
            start=start, end=end, op_id=self.current_op,
            args=tuple(sorted(args.items()))))

    def op_span(self, stream: str, op_id: int, label: str,
                start: float, end: float, **args) -> None:
        """Record the parent span of one executed TileOp."""
        self.spans.append(TraceSpan(
            name=label, resource="ops", stream=stream,
            start=start, end=end, op_id=op_id,
            args=tuple(sorted(args.items()))))

    def instant(self, resource: str, time: float,
                name: Optional[str] = None, stream: Optional[str] = None,
                op_id: Optional[int] = None, **args) -> None:
        """Record a point event (e.g. an SLO violation mark) on
        ``resource`` at ``time``; stream/op context default to the
        innermost executing op."""
        self.spans.append(TraceSpan(
            name=name if name is not None else resource,
            resource=resource,
            stream=stream if stream is not None else self.current_stream,
            start=time, end=time,
            op_id=op_id if op_id is not None else self.current_op,
            args=tuple(sorted(args.items())), instant=True))

    def counter(self, resource: str, time: float, name: str,
                stream: Optional[str] = None, **series) -> None:
        """Record a Chrome counter sample (``"ph": "C"``): one or more
        named numeric series values at ``time``. Perfetto renders each
        distinct ``name`` as a stacked-area track, so queue depth,
        offered load, and cache dirty bytes become live timelines next
        to the spans."""
        self.spans.append(TraceSpan(
            name=name, resource=resource,
            stream=stream if stream is not None else self.current_stream,
            start=time, end=time, op_id=-1,
            args=tuple(sorted(series.items())), instant=True,
            counter=True))

    def instants(self, resource: Optional[str] = None) -> List[TraceSpan]:
        """All point events, optionally filtered by resource (counter
        samples excluded — see :meth:`counters`)."""
        return [s for s in self.spans if s.instant and not s.counter
                and (resource is None or s.resource == resource)]

    def counters(self, name: Optional[str] = None) -> List[TraceSpan]:
        """All counter samples, optionally filtered by counter name."""
        return [s for s in self.spans if s.counter
                and (name is None or s.name == name)]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def resource_metrics(self) -> Dict[str, Dict[str, float]]:
        """Aggregate busy time / span count / byte count per resource."""
        metrics: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span.counter:
                continue  # samples, not busy time
            entry = metrics.setdefault(
                span.resource, {"busy_time": 0.0, "spans": 0, "bytes": 0})
            entry["busy_time"] += span.duration
            entry["spans"] += 1
            for key, value in span.args:
                # a non-numeric "bytes" arg (loaded trace, custom span)
                # must not poison the whole aggregation
                if (key == "bytes" and isinstance(value, (int, float))
                        and not isinstance(value, bool)):
                    entry["bytes"] += value
        return metrics

    def stream_spans(self, stream: str) -> List[TraceSpan]:
        return [s for s in self.spans if s.stream == stream]

    def op_children(self, op_id: int) -> List[TraceSpan]:
        """Component spans recorded while ``op_id`` was executing."""
        return [s for s in self.spans
                if s.op_id == op_id and s.resource != "ops"]

    # ------------------------------------------------------------------
    # Chrome trace_event export
    # ------------------------------------------------------------------
    @staticmethod
    def _tid_sort_key(resource: str) -> Tuple[int, str]:
        """"ops" threads sort first; every other resource by name."""
        return (0 if resource == "ops" else 1, resource)

    def to_chrome(self) -> Dict[str, object]:
        """Chrome ``trace_event`` JSON object (complete events).

        The trace_event spec types ``tid`` as an integer, so resources
        get numeric thread ids plus ``thread_name`` /
        ``thread_sort_index`` metadata events — the form both
        chrome://tracing and Perfetto load.
        """
        streams = sorted({span.stream for span in self.spans})
        pids = {stream: index + 1 for index, stream in enumerate(streams)}
        resources = sorted({span.resource for span in self.spans},
                           key=self._tid_sort_key)
        tids = {resource: index + 1
                for index, resource in enumerate(resources)}
        events: List[Dict[str, object]] = []
        by_stream: Dict[str, set] = {stream: set() for stream in streams}
        for span in self.spans:
            by_stream[span.stream].add(span.resource)
        for stream, pid in pids.items():
            events.append({"ph": "M", "pid": pid, "tid": 0,
                           "name": "process_name",
                           "args": {"name": f"stream:{stream}"}})
            for resource in sorted(by_stream[stream],
                                   key=self._tid_sort_key):
                tid = tids[resource]
                events.append({"ph": "M", "pid": pid, "tid": tid,
                               "name": "thread_name",
                               "args": {"name": resource}})
                events.append({"ph": "M", "pid": pid, "tid": tid,
                               "name": "thread_sort_index",
                               "args": {"sort_index": tid}})
        for span in self.spans:
            if span.counter:
                events.append({
                    "ph": "C",
                    "pid": pids[span.stream],
                    "tid": tids[span.resource],
                    "name": span.name,
                    "cat": "counter",
                    "ts": span.start * 1e6,
                    "args": dict(span.args),
                })
                continue
            if span.instant:
                events.append({
                    "ph": "i",
                    "s": "t",
                    "pid": pids[span.stream],
                    "tid": tids[span.resource],
                    "name": span.name,
                    "cat": "mark",
                    "ts": span.start * 1e6,
                    "args": dict(span.args, op_id=span.op_id),
                })
                continue
            events.append({
                "ph": "X",
                "pid": pids[span.stream],
                "tid": tids[span.resource],
                "name": span.name,
                "cat": "op" if span.resource == "ops" else "resource",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "args": dict(span.args, op_id=span.op_id),
            })
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def save(self, path: Union[str, Path]) -> Path:
        """Write the Chrome trace JSON (byte-stable: sorted keys);
        returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome(), sort_keys=True))
        return path

    @classmethod
    def from_chrome(cls, payload: Dict[str, object]) -> "TraceRecorder":
        """Rebuild a recorder from a Chrome trace object previously
        produced by :meth:`to_chrome` (the ``repro report --trace``
        path). Timestamps come back in seconds; metadata events are
        consumed, not replayed."""
        events = payload.get("traceEvents", [])
        streams: Dict[int, str] = {}
        resources: Dict[Tuple[int, int], str] = {}
        for event in events:
            if event.get("ph") != "M":
                continue
            if event.get("name") == "process_name":
                name = event["args"]["name"]
                if name.startswith("stream:"):
                    name = name[len("stream:"):]
                streams[event["pid"]] = name
            elif event.get("name") == "thread_name":
                resources[(event["pid"], event["tid"])] = \
                    event["args"]["name"]
        recorder = cls()
        for event in events:
            phase = event.get("ph")
            if phase not in ("X", "i", "C"):
                continue
            pid, tid = event["pid"], event["tid"]
            stream = streams.get(pid, str(pid))
            resource = resources.get((pid, tid), str(tid))
            args = dict(event.get("args", {}))
            op_id = args.pop("op_id", -1)
            start = event["ts"] / 1e6
            end = start + (event.get("dur", 0.0) / 1e6)
            recorder.spans.append(TraceSpan(
                name=event.get("name", resource), resource=resource,
                stream=stream, start=start, end=end, op_id=op_id,
                args=tuple(sorted(args.items())),
                instant=(phase in ("i", "C")),
                counter=(phase == "C")))
        return recorder

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceRecorder":
        """Load a saved Chrome trace JSON file back into a recorder."""
        return cls.from_chrome(json.loads(Path(path).read_text()))

    def clear(self) -> None:
        self.spans.clear()
        self._context.clear()
