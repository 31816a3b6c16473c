"""Host-speed reference for normalizing wall times.

On a shared host the same interpreter-bound code runs up to ~1.7x
slower for seconds to minutes at a time, because other tenants contend
for the cores. Such a host switches between speed modes, so a run's
median op time flips between modes and its wall time drifts.

:class:`SpeedTrack` samples a fixed pure-Python reference loop, shaped
like the simulator's hot paths (slotted-object timeline reservations,
dict lookups, tuple building, a sort), every ``INTERVAL_S`` between the
benchmark's ops. Each op time and each stretch of wall time between
two samples is divided by the local speed factor: the median of the
nearest samples over the nominal sample time. That expresses every
time at the nominal host speed. The reference loop imports nothing
from the simulator, so a change to the simulator cannot move it.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List, Tuple

__all__ = ["Reference", "SpeedTrack", "NOMINAL_S", "INTERVAL_S"]

#: median duration of one reference pass taken between the benchmark's
#: ops on the calibration host (2-vCPU x86-64 VM at 2.0 GHz, CPython
#: 3.11); the factor is 1 at that speed
NOMINAL_S = 2.5e-3
#: wall time between samples inside a timed phase
INTERVAL_S = 0.1
#: samples on each side of an interval that its factor is the median of
SMOOTHING = 2

clock = time.perf_counter


class _Server:
    __slots__ = ("free_at", "busy_time", "ops")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.busy_time = 0.0
        self.ops = 0


class Reference:
    """The reference loop and its state (build once per process)."""

    def __init__(self) -> None:
        rng = random.Random(0x5EED)
        self._servers = {index: _Server() for index in range(8192)}
        self._keys = [rng.randrange(8192) for _ in range(2048)]
        #: every pass's duration, over all phases of the process
        self.history: List[float] = []

    def factor(self) -> float:
        """Speed factor over every pass so far."""
        return statistics.median(self.history) / NOMINAL_S

    def run(self) -> float:
        """One timed pass; returns its duration in seconds."""
        start = clock()
        servers = self._servers
        now = 0.0
        issued = []
        for key in self._keys:
            server = servers[key]
            begin = server.free_at
            if begin < now:
                begin = now
            end = begin + 1e-6
            server.free_at = end
            server.busy_time += 1e-6
            server.ops += 1
            now = end * 0.5
            issued.append((key, end))
        issued.sort()
        for server in servers.values():
            server.free_at = 0.0
        elapsed = clock() - start
        self.history.append(elapsed)
        return elapsed


class SpeedTrack:
    """Reference samples taken during one stretch of work.

    Call :meth:`poll` between ops; it samples when ``INTERVAL_S`` has
    passed. Samples split the stretch into intervals: interval ``k``
    ends where sample ``k`` starts, and the last one ends at
    :meth:`finish`. An op that ends in interval ``k`` is scaled by
    ``factors()[k]``.
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.samples: List[float] = []
        #: (start, end) clock of every sample
        self.marks: List[Tuple[float, float]] = []
        self.start = clock()
        self.end = self.start
        self.next_at = self.start + INTERVAL_S

    def sample(self) -> None:
        begin = clock()
        self.samples.append(self.reference.run())
        end = clock()
        self.marks.append((begin, end))
        self.next_at = end + INTERVAL_S

    def poll(self, now: float) -> None:
        if now >= self.next_at:
            self.sample()

    @property
    def interval(self) -> int:
        """Index of the interval running now."""
        return len(self.samples)

    def finish(self) -> None:
        self.end = clock()

    def factors(self) -> List[float]:
        """Speed factor of every interval (``> 1``: a slow host)."""
        samples = self.samples
        last = len(samples) - 1
        out = []
        for k in range(len(samples) + 1):
            centre = min(k, last)
            window = samples[max(0, centre - SMOOTHING):centre + SMOOTHING + 1]
            out.append(statistics.median(window) / NOMINAL_S)
        return out

    def overall(self) -> float:
        """One factor for the whole stretch."""
        return statistics.median(self.samples) / NOMINAL_S

    def walls(self) -> Tuple[float, float]:
        """``(raw, normalized)`` wall time of the stretch, both without
        the time spent sampling."""
        edges = [self.start]
        for begin, end in self.marks:
            edges += [begin, end]
        edges.append(max(self.end, edges[-1]))
        raw = normalized = 0.0
        for k, factor in enumerate(self.factors()):
            length = edges[2 * k + 1] - edges[2 * k]
            raw += length
            normalized += length / factor
        return raw, normalized
