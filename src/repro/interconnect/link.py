"""Host ↔ device link model.

One FCFS :class:`~repro.sim.resources.Timeline` carries every transfer.
Each transfer pays a fixed per-command overhead plus ``size/bandwidth``
— the model behind the paper's [P2]: small requests cannot amortize the
per-transaction cost, so a 32 KB request reaches only ~66 % of peak
while ≥ 2 MB requests saturate (§2.1).
"""

from __future__ import annotations

from repro.sim.resources import Timeline
from repro.sim.stats import StatSet

__all__ = ["Link"]


class Link:
    """A full-duplex-agnostic (single shared pipe) interconnect.

    Parameters
    ----------
    bandwidth:
        Peak payload bandwidth, bytes/second.
    command_overhead:
        Per-transfer fixed cost in seconds (doorbell, DMA setup,
        protocol framing).
    """

    def __init__(self, bandwidth: float, command_overhead: float,
                 name: str = "link") -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if command_overhead < 0:
            raise ValueError("command_overhead must be non-negative")
        self.bandwidth = bandwidth
        self.command_overhead = command_overhead
        self.line = Timeline(name)
        self.stats = StatSet()
        #: the owning system's :class:`~repro.obs.probe.Probe` while a
        #: trace or metrics subscriber is attached, else None
        self.probe = None

    def transfer_duration(self, num_bytes: int) -> float:
        return self.command_overhead + num_bytes / self.bandwidth

    def transfer(self, num_bytes: int, earliest_start: float) -> float:
        """Occupy the link for one transfer; returns its end time."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        start, end = self.line.reserve(earliest_start,
                                       self.transfer_duration(num_bytes))
        self.stats.count("transfers")
        self.stats.count("bytes", num_bytes)
        if self.probe is not None:
            self.probe.transfer(start, end, num_bytes)
        return end

    def effective_bandwidth(self, request_bytes: int) -> float:
        """Achieved bytes/second for back-to-back requests of one size."""
        if request_bytes <= 0:
            return 0.0
        return request_bytes / self.transfer_duration(request_bytes)

    def reset_time(self) -> None:
        self.line.reset()
