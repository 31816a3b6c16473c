"""Host CPU cost model.

Two Timeline resources: an *issue* line (the core driving the I/O
software stack — every request costs ``per_io_cost`` seconds of it,
[P1]) and a pool of *copy* cores doing marshalling/assembly memcpys.
The paper's host is an 8-core Ryzen 3700X; the default dedicates one
core to each role, matching the single-threaded assembly loop of the
software NDS prototype (ablations can raise ``copy_cores``).
"""

from __future__ import annotations

from repro.host.memory import MemoryModel
from repro.sim.resources import MultiTimeline, Timeline
from repro.sim.stats import StatSet

__all__ = ["HostCpu"]


class HostCpu:
    """Host processor resources and cost accounting."""

    def __init__(self, per_io_cost: float = 4e-6,
                 memory: MemoryModel = MemoryModel(),
                 copy_cores: int = 1,
                 stl_lookup_cost: float = 2e-6) -> None:
        if per_io_cost < 0:
            raise ValueError("per_io_cost must be non-negative")
        self.per_io_cost = per_io_cost
        self.memory = memory
        self.issue_line = Timeline("host_issue")
        self.copy_lines = MultiTimeline(copy_cores, "host_copy")
        #: per-request cost of host-side STL work (B-tree walk + Eq. 5
        #: translation) for the software NDS; calibrated against the
        #: 41 µs worst-case adder of §7.3 together with LightNVM I/O costs.
        self.stl_lookup_cost = stl_lookup_cost
        self.stats = StatSet()
        #: the owning system's :class:`~repro.obs.probe.Probe` while a
        #: trace or metrics subscriber is attached, else None
        self.probe = None

    # ------------------------------------------------------------------
    def issue_io(self, earliest_start: float) -> float:
        """Charge one request's software-stack cost; returns finish time."""
        start, end = self.issue_line.reserve(earliest_start, self.per_io_cost)
        self.stats.count("host_ios")
        self.stats.add_time("host_issue", self.per_io_cost)
        if self.probe is not None:
            self.probe.stage("host_issue", "issue_io", "host.issue", start,
                             end)
        return end

    def run_issue_work(self, earliest_start: float, seconds: float,
                       label: str = "issue_work") -> float:
        """Charge arbitrary work to the issue core (e.g. host-side STL);
        ``label`` names the span in traces."""
        start, end = self.issue_line.reserve(earliest_start, seconds)
        self.stats.add_time("host_issue", seconds)
        if self.probe is not None:
            self.probe.stage("host_issue", label, f"host.{label}", start, end)
        return end

    def copy(self, num_bytes: int, earliest_start: float,
             chunk_bytes: int = 0, label: str = "host_copy") -> float:
        """Charge a (possibly chunked) marshalling copy; returns finish.
        ``label`` names the trace span (the DRAM cache tier uses
        ``"cache_copy"`` so hit service attributes to its own layer)."""
        duration = self.memory.copy_time(num_bytes, chunk_bytes)
        start, end, _core = self.copy_lines.reserve(earliest_start, duration)
        self.stats.count("host_copies")
        self.stats.count("host_copied_bytes", num_bytes)
        self.stats.add_time("host_copy", duration)
        if self.probe is not None:
            self.probe.copy(start, end, duration, num_bytes, label)
        return end

    def reset_time(self) -> None:
        self.issue_line.reset()
        self.copy_lines.reset()
