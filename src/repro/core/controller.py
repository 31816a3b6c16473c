"""The NDS-compliant SSD controller pipeline (§5.3.2, Fig. 8).

The prototype controller runs STL firmware on ARM A72 cores, one
pipeline element per core: PCIe/NVMe command handler, space
translator/manager, space allocator (+GC), data assembler, and channel
handlers (the channel handlers are the flash-array model itself).
Pipeline elements communicate through message queues; we model each
element as an FCFS timeline with calibrated per-unit service times.

Calibration anchor (§7.3): a worst-case single-page request pays ~17 µs
of extra latency in hardware NDS — command handling + a full B-tree
walk + assembly of one page.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.resources import Timeline

__all__ = ["ControllerTiming", "NdsController"]


@dataclass(frozen=True)
class ControllerTiming:
    """Service times of the controller pipeline elements (seconds).

    ARM A72 firmware cores are markedly slower than the host CPU
    (§7.2: "the NDS controller is less powerful than the host
    processor").
    """

    command_handle: float = 7e-6      # PCIe/NVMe command handler, per command
    translate_per_node: float = 2e-6  # space translator, per B-tree node
    translate_per_block: float = 0.3e-6   # per building block emitted
    #: space allocator firmware, per unit on the write path: placement
    #: rules, map update and OOB reverse-table write on the A72 cores.
    #: Calibrated so the hardware NDS write penalty matches Fig. 9(d)'s
    #: ~17 % loss against the baseline.
    allocate_per_unit: float = 16e-6
    #: data assembler: DMA descriptor setup per page + device DRAM copy —
    #: reads are gather DMA; writes additionally pay the allocator above
    assemble_per_page: float = 0.3e-6
    assemble_bandwidth: float = 12.8e9

    def worst_case_read_latency(self, tree_levels: int) -> float:
        """§7.3 worst case: one page, full tree walk, one assembly."""
        return (self.command_handle
                + self.translate_per_node * tree_levels
                + self.translate_per_block
                + self.assemble_per_page)


class NdsController:
    """Pipelined controller: each element is one FCFS service line."""

    def __init__(self, timing: ControllerTiming = ControllerTiming()) -> None:
        self.timing = timing
        self.command_line = Timeline("ctrl_cmd")
        self.translate_line = Timeline("ctrl_translate")
        self.allocate_line = Timeline("ctrl_alloc")
        self.assemble_line = Timeline("ctrl_assemble")
        #: the owning system's :class:`~repro.obs.probe.Probe` while a
        #: trace or metrics subscriber is attached, else None
        self.probe = None

    # ------------------------------------------------------------------
    def handle_command(self, earliest_start: float) -> float:
        start, end = self.command_line.reserve(earliest_start,
                                               self.timing.command_handle)
        if self.probe is not None:
            self.probe.stage("ctrl_cmd", "nvme_command", "ctrl.command",
                             start, end)
        return end

    def translate(self, earliest_start: float, nodes_visited: int,
                  blocks: int) -> float:
        duration = (self.timing.translate_per_node * nodes_visited
                    + self.timing.translate_per_block * blocks)
        start, end = self.translate_line.reserve(earliest_start, duration)
        if self.probe is not None:
            self.probe.stage("ctrl_translate", "stl_translate",
                             "ctrl.translate", start, end)
        return end

    def allocate(self, earliest_start: float, units: int) -> float:
        duration = self.timing.allocate_per_unit * units
        start, end = self.allocate_line.reserve(earliest_start, duration)
        if self.probe is not None:
            self.probe.stage("ctrl_alloc", "stl_allocate", "ctrl.allocate",
                             start, end)
        return end

    def assemble(self, earliest_start: float, num_bytes: int,
                 pages: int) -> float:
        """Scatter/gather ``num_bytes`` through device DRAM in
        ``pages`` page-granular moves."""
        duration = (self.timing.assemble_per_page * pages
                    + num_bytes / self.timing.assemble_bandwidth)
        start, end = self.assemble_line.reserve(earliest_start, duration)
        if self.probe is not None:
            self.probe.assemble(start, end, num_bytes)
        return end

    def reset_time(self) -> None:
        for line in (self.command_line, self.translate_line,
                     self.allocate_line, self.assemble_line):
            line.reset()
