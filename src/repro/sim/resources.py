"""Resource timelines: the analytic core of the timing model.

A :class:`Timeline` models a single FCFS server (one flash channel, one
bank, the PCIe link, one CPU hardware thread...). Reserving an interval
returns when the work actually started and finished, pushing the
server's next-free time forward. Because every schedule in the
storage model is deterministic FCFS, chains of ``reserve`` calls
reproduce exactly the behaviour an event-driven simulation would produce,
at a fraction of the cost.

:class:`MultiTimeline` models ``k`` identical servers with
earliest-available dispatch (e.g. "any free bank").
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["Timeline", "MultiTimeline"]


class Timeline:
    """A single FCFS server with a next-free-time cursor.

    It is the one place its resource's busy time (``busy_time``) and
    reservation count (``ops``) are kept (see :mod:`repro.sim.stats`).
    """

    __slots__ = ("name", "free_at", "busy_time", "ops")

    def __init__(self, name: str = "", start_time: float = 0.0) -> None:
        self.name = name
        self.free_at = float(start_time)
        self.busy_time = 0.0
        self.ops = 0

    def reserve(self, earliest_start: float, duration: float) -> Tuple[float, float]:
        """Occupy the server for ``duration`` seconds, starting no earlier
        than ``earliest_start``.

        Returns ``(start, end)``: the actual interval granted.
        """
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        start = max(earliest_start, self.free_at)
        end = start + duration
        self.free_at = end
        self.busy_time += duration
        self.ops += 1
        return start, end

    def reset(self, start_time: float = 0.0) -> None:
        self.free_at = float(start_time)
        self.busy_time = 0.0
        self.ops = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeline({self.name!r}, free_at={self.free_at:.6g}, ops={self.ops})"


class MultiTimeline:
    """``k`` identical FCFS servers with earliest-available dispatch."""

    __slots__ = ("name", "servers")

    def __init__(self, count: int, name: str = "", start_time: float = 0.0) -> None:
        if count < 1:
            raise ValueError("MultiTimeline needs at least one server")
        self.name = name
        self.servers: List[Timeline] = [
            Timeline(f"{name}[{i}]", start_time) for i in range(count)
        ]

    def reserve(self, earliest_start: float, duration: float) -> Tuple[float, float, int]:
        """Dispatch to the server that can start soonest.

        Returns ``(start, end, server_index)``.
        """
        # Plain scan, no lambda/closure: this sits on the per-request hot
        # path of every host copy. Strict < keeps the first-minimal
        # tie-break of min(..., key=...).
        servers = self.servers
        best = servers[0]
        index = 0
        best_free = best.free_at
        for i in range(1, len(servers)):
            candidate = servers[i]
            if candidate.free_at < best_free:
                best = candidate
                best_free = candidate.free_at
                index = i
        start, end = best.reserve(earliest_start, duration)
        return start, end, index

    def busy_time(self) -> float:
        return sum(s.busy_time for s in self.servers)

    def reset(self, start_time: float = 0.0) -> None:
        for s in self.servers:
            s.reset(start_time)
