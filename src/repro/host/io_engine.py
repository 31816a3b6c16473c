"""Queue-depth-limited I/O request scheduling.

This engine reproduces the end-to-end request flow of paper Figure 7(a)
for the baseline system (and the LightNVM flow of Figure 7(b)):

  host software stack → link command → device controller → flash →
  link data transfer → (optional) host placement copy.

A queue depth > 1 lets consecutive requests overlap, so the steady
state is limited by the slowest resource — exactly how a real NVMe
queue pair behaves. All resources are FCFS timelines, so the analytic
schedule equals the event-driven one. The in-flight limit itself is
the runtime's :class:`~repro.runtime.scheduler.QueueDepthWindow` — the
same primitive that gates tenant streams in the request scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import List, Optional, Sequence

import numpy as np

from repro.ftl.ssd import BaselineSSD
from repro.host.cpu import HostCpu
from repro.interconnect.link import Link
from repro.runtime.scheduler import QueueDepthWindow
from repro.sim.resources import Timeline
from repro.sim.stats import StatSet

__all__ = ["IoRun", "IoRunResult", "HostIoEngine"]


@dataclass
class IoRun:
    """Host-visible I/O requests as parallel columns, one entry per
    request; each request is a run of consecutive logical pages."""

    #: first logical page of each request
    firsts: List[int] = field(default_factory=list)
    #: pages the device touches per request
    counts: List[int] = field(default_factory=list)
    #: bytes the application wanted (pages fetched beyond them are
    #: wasted device bandwidth)
    useful: List[int] = field(default_factory=list)
    #: host CPU copy between the DMA buffer and the application buffer
    #: in chunks of this many bytes (0 = one contiguous copy); None
    #: models direct DMA placement
    chunks: List[Optional[int]] = field(default_factory=list)
    #: a functional write's data (per request, one array per page);
    #: None for a timing-only run
    payloads: Optional[List[Sequence[np.ndarray]]] = None

    def __len__(self) -> int:
        return len(self.firsts)

    def append(self, first: int, count: int, useful: int,
               chunk: Optional[int],
               payload: Optional[Sequence[np.ndarray]] = None) -> None:
        """Add one request (its payload only to a payload column)."""
        self.firsts.append(first)
        self.counts.append(count)
        self.useful.append(useful)
        self.chunks.append(chunk)
        if self.payloads is not None:
            self.payloads.append(payload)

    def request(self, index: int) -> "IoRun":
        """Request ``index`` as a run of its own."""
        payloads = self.payloads
        return IoRun([self.firsts[index]], [self.counts[index]],
                     [self.useful[index]], [self.chunks[index]],
                     None if payloads is None else [payloads[index]])


@dataclass
class IoRunResult:
    """Aggregate outcome of a batch of requests."""

    start_time: float
    end_time: float
    completions: List[float] = field(default_factory=list)
    useful_bytes: int = 0
    fetched_bytes: int = 0
    stats: StatSet = field(default_factory=StatSet)
    data: List[Optional[List[np.ndarray]]] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time

    @property
    def effective_bandwidth(self) -> float:
        """Application-visible bytes/second."""
        if self.elapsed <= 0:
            return 0.0
        return self.useful_bytes / self.elapsed


class HostIoEngine:
    """Drives a :class:`BaselineSSD` through a link with host CPU costs.

    Each call takes one :class:`IoRun`; every request still pays its
    own window, issue, controller, device, link and copy steps (the
    per-I/O cost of [P1]), and its bounds are tested in turn, so the
    requests before a bad one still execute. Both flows inline every
    layer's Timeline bookkeeping — the host issue core, the device
    controller, the link and the host copy cores — in the FCFS order of
    the per-layer calls (``cpu.issue_io``, ``link.transfer``,
    ``cpu.copy``), so each float operation happens in the same sequence.
    On the device side the read flow walks the FTL map itself and calls
    ``FlashArray.read_pages`` once per request, and the write flow calls
    the FTL write step (``BaselineSSD._program_lpns``) into the run's
    stats, so no request builds a device result. With a probe attached,
    the events those layers would emit are emitted at the same point.
    The timelines themselves count each step's busy time and ops, so a
    request that raises leaves exactly the steps that ran counted.
    """

    def __init__(self, ssd: BaselineSSD, link: Link, cpu: HostCpu,
                 queue_depth: int = 32) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.ssd = ssd
        self.link = link
        self.cpu = cpu
        self.queue_depth = queue_depth
        self.controller_line = Timeline("device_ctrl")
        self.controller_command_time = ssd.profile.controller_command_time
        #: the owning system's :class:`~repro.obs.probe.Probe` while a
        #: trace or metrics subscriber is attached, else None
        self.probe = None

    # ------------------------------------------------------------------
    def run_reads(self, run: IoRun, start_time: float = 0.0,
                  with_data: bool = False) -> IoRunResult:
        """Execute a run's read requests in order under the queue-depth
        limit: host software stack → device controller (FTL map) →
        flash → link data transfer → optional host placement copy."""
        result = IoRunResult(start_time=start_time, end_time=start_time)
        window = QueueDepthWindow(self.queue_depth)
        cpu = self.cpu
        link = self.link
        ssd = self.ssd
        check_lpns = ssd._check_lpns
        logical_pages = ssd.logical_pages
        map_get = ssd.ftl.map.get
        read_pages = ssd.flash.read_pages
        issue_line = cpu.issue_line
        ctrl_line = self.controller_line
        link_line = link.line
        per_io = cpu.per_io_cost
        ctrl_time = self.controller_command_time
        link_overhead = link.command_overhead
        link_bandwidth = link.bandwidth
        page_size = ssd.page_size
        copy_time = cpu.memory.copy_time
        copy_servers = cpu.copy_lines.servers
        window_earliest = window.earliest
        window_complete = window.complete
        completions_append = result.completions.append
        data_append = result.data.append
        probe = self.probe
        end_time = start_time
        useful_total = 0
        fetched_total = 0
        pages_total = 0
        unmapped_total = 0
        for first, count, useful, chunk in zip(run.firsts, run.counts,
                                               run.useful, run.chunks):
            earliest = window_earliest(start_time)
            # host software stack (cpu.issue_io)
            issue_start = issue_line.free_at
            if issue_start < earliest:
                issue_start = earliest
            issued = issue_start + per_io
            issue_line.free_at = issued
            issue_line.busy_time += per_io
            issue_line.ops += 1
            if probe is not None:
                probe.stage("host_issue", "issue_io", "host.issue",
                            issue_start, issued)
            # device controller command handling
            ctrl_start = ctrl_line.free_at
            if ctrl_start < issued:
                ctrl_start = issued
            ctrl_done = ctrl_start + ctrl_time
            ctrl_line.free_at = ctrl_done
            ctrl_line.busy_time += ctrl_time
            ctrl_line.ops += 1
            if probe is not None:
                probe.stage("device_ctrl", "ftl_map", "ftl.map",
                            ctrl_start, ctrl_done)
            # device: FTL map (page indices) + flash fan-out
            # (ssd.read_lpns)
            if first < 0 or first + count > logical_pages:
                check_lpns(range(first, first + count))
            if count == 1 and not with_data:
                ppa = map_get(first)
                ppas = () if ppa is None else (ppa,)
            else:
                resolved = list(map(map_get, range(first, first + count)))
                ppas = [ppa for ppa in resolved if ppa is not None]
            device_end = read_pages(ppas, ctrl_done)
            pages_total += len(ppas)
            unmapped_total += count - len(ppas)
            data_append(ssd._gather(resolved) if with_data else None)
            # link data transfer (link.transfer)
            fetched = count * page_size
            duration = link_overhead + fetched / link_bandwidth
            link_start = link_line.free_at
            if link_start < device_end:
                link_start = device_end
            done = link_start + duration
            link_line.free_at = done
            link_line.busy_time += duration
            link_line.ops += 1
            fetched_total += fetched
            if probe is not None:
                probe.transfer(link_start, done, fetched)
            # optional host placement copy (cpu.copy)
            if chunk is not None:
                duration = copy_time(useful, chunk)
                core = copy_servers[0]
                for candidate in copy_servers[1:]:
                    if candidate.free_at < core.free_at:
                        core = candidate
                copy_start = core.free_at
                if copy_start < done:
                    copy_start = done
                done = copy_start + duration
                core.free_at = done
                core.busy_time += duration
                core.ops += 1
                if probe is not None:
                    probe.copy(copy_start, done, duration, useful,
                               "host_copy")
            window_complete(done)
            completions_append(done)
            useful_total += useful
            if done > end_time:
                end_time = done
        result.end_time = end_time
        result.useful_bytes = useful_total
        result.fetched_bytes = fetched_total
        if run:
            result.stats.count("device_pages_read", pages_total)
            result.stats.count("device_pages_unmapped", unmapped_total)
        result.stats.count("io_requests", len(run))
        return result

    def run_writes(self, run: IoRun, start_time: float = 0.0) -> IoRunResult:
        """Execute a run's write requests in order under the queue-depth
        limit: host software stack → optional host gather copy → link
        data transfer → device controller → the FTL write step
        (allocation, programs and GC; :meth:`BaselineSSD.write_lpns`
        without the per-request result)."""
        result = IoRunResult(start_time=start_time, end_time=start_time)
        window = QueueDepthWindow(self.queue_depth)
        cpu = self.cpu
        link = self.link
        ssd = self.ssd
        check_lpns = ssd._check_lpns
        logical_pages = ssd.logical_pages
        program_lpns = ssd._program_lpns
        issue_line = cpu.issue_line
        ctrl_line = self.controller_line
        link_line = link.line
        per_io = cpu.per_io_cost
        ctrl_time = self.controller_command_time
        link_overhead = link.command_overhead
        link_bandwidth = link.bandwidth
        page_size = ssd.page_size
        copy_time = cpu.memory.copy_time
        copy_servers = cpu.copy_lines.servers
        window_earliest = window.earliest
        window_complete = window.complete
        completions_append = result.completions.append
        stats = result.stats
        probe = self.probe
        end_time = start_time
        useful_total = 0
        sent_total = 0
        for first, count, useful, chunk, payload in zip(
                run.firsts, run.counts, run.useful, run.chunks,
                run.payloads or repeat(None)):
            earliest = window_earliest(start_time)
            # host software stack (cpu.issue_io)
            issue_start = issue_line.free_at
            if issue_start < earliest:
                issue_start = earliest
            issued = issue_start + per_io
            issue_line.free_at = issued
            issue_line.busy_time += per_io
            issue_line.ops += 1
            if probe is not None:
                probe.stage("host_issue", "issue_io", "host.issue",
                            issue_start, issued)
            # host gathers scattered application data into the DMA
            # buffer before the transfer (serialization cost, [P1])
            if chunk is not None:
                duration = copy_time(useful, chunk)
                core = copy_servers[0]
                for candidate in copy_servers[1:]:
                    if candidate.free_at < core.free_at:
                        core = candidate
                copy_start = core.free_at
                if copy_start < issued:
                    copy_start = issued
                issued = copy_start + duration
                core.free_at = issued
                core.busy_time += duration
                core.ops += 1
                if probe is not None:
                    probe.copy(copy_start, issued, duration, useful,
                               "host_copy")
            # link data transfer (link.transfer)
            sent = count * page_size
            duration = link_overhead + sent / link_bandwidth
            link_start = link_line.free_at
            if link_start < issued:
                link_start = issued
            link_end = link_start + duration
            link_line.free_at = link_end
            link_line.busy_time += duration
            link_line.ops += 1
            sent_total += sent
            if probe is not None:
                probe.transfer(link_start, link_end, sent)
            # device controller command handling
            ctrl_start = ctrl_line.free_at
            if ctrl_start < link_end:
                ctrl_start = link_end
            ctrl_done = ctrl_start + ctrl_time
            ctrl_line.free_at = ctrl_done
            ctrl_line.busy_time += ctrl_time
            ctrl_line.ops += 1
            if probe is not None:
                probe.stage("device_ctrl", "ftl_map", "ftl.map",
                            ctrl_start, ctrl_done)
            # device: allocation, programs, GC (ssd.write_lpns)
            if first < 0 or first + count > logical_pages:
                check_lpns(range(first, first + count))
            done = program_lpns(range(first, first + count), ctrl_done,
                                payload, stats)
            window_complete(done)
            completions_append(done)
            useful_total += useful
            if done > end_time:
                end_time = done
        result.end_time = end_time
        result.useful_bytes = useful_total
        result.fetched_bytes = sent_total
        result.stats.count("io_requests", len(run))
        return result

    def reset_time(self) -> None:
        self.ssd.reset_time()
        self.link.reset_time()
        self.cpu.reset_time()
        self.controller_line.reset()
