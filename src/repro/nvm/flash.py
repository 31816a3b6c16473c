"""The flash array: functional page store + timed operation scheduling.

This is the lowest substrate layer. It models:

* **Structure** — channels × banks × blocks × pages (:class:`Geometry`).
* **Timing** — FCFS scheduling over per-bank and per-channel
  :class:`~repro.sim.resources.Timeline` servers. A read occupies the
  bank for ``t_read`` and then the channel for the page transfer; a
  program transfers over the channel first and then occupies the bank
  for ``t_program``. Banks behind one channel pipeline naturally; this
  reproduces the channel-level and bank-level parallelism the paper's
  STL exploits (§2.1, §4.1).
* **Semantics** — program-once/erase-block NAND rules. Programming a
  page that is already programmed raises; erases reset a whole block.
  This keeps the FTL and the STL honest.
* **Data** — optional byte-accurate page contents (numpy ``uint8``
  arrays) so that every higher layer can be verified functionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.faults.errors import (EraseFailError, ProgramFailError,
                                 UncorrectableError)
from repro.nvm.address import PhysicalPageAddress, ppa_to_index
from repro.nvm.geometry import Geometry
from repro.nvm.timing import NvmTiming
from repro.sim.resources import Timeline
from repro.sim.stats import StatSet

__all__ = ["FlashArray", "FlashOpResult", "FlashStateError", "EccError",
           "MoveStop", "OutOfSpaceError"]


class FlashStateError(RuntimeError):
    """Violation of NAND program/erase semantics."""


class OutOfSpaceError(RuntimeError):
    """No free page satisfies the allocation request (GC must run).

    Raised by the page allocators above the array
    (:mod:`repro.ftl.mapping` re-exports it); :meth:`FlashArray.move_chain`
    stops on it."""


def _page_checksum(page: "np.ndarray") -> int:
    """Cheap ECC stand-in: XOR-fold of the page's 32-bit words."""
    words = page[: (page.size // 4) * 4].view(np.uint32)
    folded = int(np.bitwise_xor.reduce(words)) if words.size else 0
    return folded ^ int(page[(page.size // 4) * 4:].sum())


class EccError(RuntimeError):
    """Uncorrectable bit error detected on a page read.

    Real NAND pages carry ECC in their out-of-band area; the model keeps
    a checksum per programmed page and raises when a read encounters
    injected corruption — the hook for failure-injection tests."""


@dataclass
class FlashOpResult:
    """Outcome of a batch of page operations.

    ``start_time`` is when the batch was issued, ``end_time`` when the
    last page finished. ``completions`` holds per-page completion times
    in issue order.
    """

    start_time: float
    end_time: float
    completions: List[float] = field(default_factory=list)
    stats: StatSet = field(default_factory=StatSet)

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time


class MoveStop(NamedTuple):
    """Where :meth:`FlashArray.move_chain` stopped short of the end of
    its block: the page in flight (read, its valid bit cleared, not
    moved) and its payload. With ``error`` None no destination was free
    and ``issue`` is the read's completion; otherwise the program to
    ``error.ppa`` failed."""

    page: int
    payload: Optional[np.ndarray]
    issue: float
    error: Optional[ProgramFailError]


class FlashArray:
    """A multi-channel, multi-bank NVM array.

    Parameters
    ----------
    geometry, timing:
        Structure and latency parameters.
    store_data:
        When True (default) page contents are kept and NAND semantics
        are enforced; timing-only mode skips both for speed.
    """

    def __init__(self, geometry: Geometry, timing: NvmTiming,
                 store_data: bool = True) -> None:
        self.geometry = geometry
        self.timing = timing
        self.store_data = store_data
        self.channel_lines = [Timeline(f"ch{c}") for c in range(geometry.channels)]
        self.bank_lines = [
            [Timeline(f"ch{c}/bk{b}") for b in range(geometry.banks_per_channel)]
            for c in range(geometry.channels)
        ]
        self._pages: Dict[int, np.ndarray] = {}
        self._programmed: set = set()
        #: page-index -> checksum of the programmed content (the ECC
        #: model); pages whose content diverges raise on verified reads
        self._checksums: Dict[int, int] = {}
        self.stats = StatSet()
        #: the owning system's :class:`~repro.obs.probe.Probe` while a
        #: trace or metrics subscriber is attached, else None
        self.probe = None
        #: optional :class:`~repro.faults.injector.FaultInjector`; with
        #: None (default) every path is bit-identical to the fault-free
        #: model — no bookkeeping, no draws, no extra reservations
        self.faults = None
        #: channel-bus time of one page; geometry and timing are frozen,
        #: so it is fixed for the array's life
        self._page_xfer = timing.transfer_time(geometry.page_size)

    def attach_faults(self, injector) -> None:
        """Attach a fault injector (None detaches). Attach before any
        timed operations so wear/retention bookkeeping is complete."""
        self.faults = injector

    # ------------------------------------------------------------------
    # functional access
    # ------------------------------------------------------------------
    def page_data(self, ppa: PhysicalPageAddress,
                  verify: bool = True) -> np.ndarray:
        """Contents of a programmed page (zero-filled if never written
        with data, e.g. timing-only programs).

        ``verify`` checks the page's ECC checksum and raises
        :class:`EccError` on injected corruption."""
        idx = ppa_to_index(ppa, self.geometry)
        data = self._pages.get(idx)
        if data is None:
            return np.zeros(self.geometry.page_size, dtype=np.uint8)
        if verify and idx in self._checksums:
            if _page_checksum(data) != self._checksums[idx]:
                raise EccError(f"uncorrectable bit error in {ppa}")
        return data

    def corrupt_page(self, ppa: PhysicalPageAddress,
                     byte_offset: int = 0) -> None:
        """Failure injection: flip bits in a programmed page's stored
        content so the next verified read raises :class:`EccError`."""
        idx = ppa_to_index(ppa, self.geometry)
        data = self._pages.get(idx)
        if data is None:
            raise FlashStateError(f"page {ppa} holds no data to corrupt")
        data[byte_offset % data.size] ^= 0xFF

    def is_programmed(self, ppa: PhysicalPageAddress) -> bool:
        return ppa_to_index(ppa, self.geometry) in self._programmed

    # ------------------------------------------------------------------
    # timed operations
    # ------------------------------------------------------------------
    def read_pages(self, ppas: Sequence[PhysicalPageAddress],
                   start_time: float = 0.0) -> FlashOpResult:
        """Read a batch of pages issued in order at ``start_time``.

        Returns per-page completion times; the scheduler exposes exactly
        as much channel/bank parallelism as the addresses allow, which
        is the effect the paper's Figures 1 and 5 are about.
        """
        result = FlashOpResult(start_time=start_time, end_time=start_time)
        result.end_time = self._read_chain(ppas, start_time,
                                           result.completions)
        result.stats.count("pages_read", len(ppas))
        self.stats.count("pages_read", len(ppas))
        return result

    def program_pages(self, ppas: Sequence[PhysicalPageAddress],
                      start_time: float = 0.0,
                      data: Optional[Sequence[Optional[np.ndarray]]] = None,
                      ) -> FlashOpResult:
        """Program a batch of pages issued in order at ``start_time``.

        ``data[i]``, when given, must be at most ``page_size`` bytes and
        is stored (zero-padded) for functional read-back.
        """
        result = FlashOpResult(start_time=start_time, end_time=start_time)
        result.end_time = self._program_chain(ppas, start_time, data,
                                              result.completions)
        result.stats.count("pages_programmed", len(ppas))
        self.stats.count("pages_programmed", len(ppas))
        return result

    def move_chain(self, channel: int, bank: int, block: int,
                   valid: List[bool], page: int,
                   allocate: Callable[[], PhysicalPageAddress],
                   moved: Callable[[int, PhysicalPageAddress], None],
                   now: float, end: float, chained: bool,
                   sources: List[int], dests: List[PhysicalPageAddress]
                   ) -> Tuple[float, Optional[MoveStop]]:
        """Move the live pages of one block, from ``page`` on, to the
        destinations ``allocate`` hands out (a plane's
        ``allocate_page``): the relocation of one GC victim as one
        reserve chain.

        Per live page (``valid[page]`` set), in page order: reserve the
        read, take the verified payload, clear ``valid[page]``, allocate
        the destination, and reserve its program at the read's
        completion. A read issues at ``now``; with ``chained``, at the
        running ``end`` once a page has moved. Every read and program
        stays on the block's bank and channel lines, so both are looked
        up once; the reservations, the faults (dead channel, ECC ladder,
        program verdict) and the probe events of each page are those of
        a one-page :meth:`read_pages` and then :meth:`program_pages`, in
        that order, and only run when an injector, a probe or
        ``store_data`` is attached.

        ``sources`` receives each page once its read completed and
        ``dests`` each destination once its program succeeded, so
        ``dests[i]`` now holds ``sources[i]``; the caller counts the
        pages read and programmed. ``moved(page, dest)`` runs right
        after each successful program, so the caller patches the page's
        owner before the next read, as a page-at-a-time move would. A
        read error propagates with its page not moved.

        Returns ``(end, stop)``: the latest program completion (``end``
        on entry at least), and None once no live page is left, or a
        :class:`MoveStop` when no destination was free or a program
        failed; the caller finishes the page in flight and calls again
        from the next page.
        """
        timing = self.timing
        t_cmd = timing.t_cmd
        t_read = timing.t_read
        t_program = timing.t_program
        xfer = self._page_xfer
        geometry = self.geometry
        per_block = geometry.pages_per_block
        channel_line = self.channel_lines[channel]
        bank_line = self.bank_lines[channel][bank]
        store = self.store_data
        faults = self.faults
        hooked = faults is not None or self.probe is not None
        source = None
        verdict = None
        while True:
            while page < per_block and not valid[page]:
                page += 1
            if page == per_block:
                return end, None
            start = end if chained and dests else now
            if hooked or store:
                source = PhysicalPageAddress(channel, bank, block, page)
            if faults is not None:
                faults.advance(start)
                if faults.channel_dead(channel):
                    faults.count("dead_channel_reads")
                    raise UncorrectableError(source, fail_time=start,
                                             reason="channel_dead")
            read_at = start + t_cmd
            read_start = bank_line.free_at
            if read_start < read_at:
                read_start = read_at
            read_end = read_start + t_read
            bank_line.busy_time += t_read
            bank_line.ops += 1
            xfer_start = channel_line.free_at
            if xfer_start < read_end:
                xfer_start = read_end
            xfer_end = xfer_start + xfer
            channel_line.free_at = xfer_end
            channel_line.busy_time += xfer
            channel_line.ops += 1
            bank_line.free_at = xfer_end
            if hooked:
                xfer_end = self._page_read(source, bank_line,
                                           channel_line, xfer,
                                           read_start, read_end,
                                           xfer_start, xfer_end)
            sources.append(page)
            payload = self.page_data(source) if store else None
            valid[page] = False
            try:
                dest = allocate()
            except OutOfSpaceError:
                return end, MoveStop(page, payload, xfer_end, None)
            issue = xfer_end
            if faults is not None:
                faults.advance(issue)
                verdict = faults.program_check(
                    ppa_to_index(dest, geometry),
                    (dest.channel, dest.bank, dest.block, dest.page))
            if store and verdict is None:
                self._store_page(dest, payload)
            program_at = issue + t_cmd
            xfer_start = channel_line.free_at
            if xfer_start < program_at:
                xfer_start = program_at
            xfer_end = xfer_start + xfer
            channel_line.free_at = xfer_end
            channel_line.busy_time += xfer
            channel_line.ops += 1
            prog_start = bank_line.free_at
            if prog_start < xfer_end:
                prog_start = xfer_end
            prog_end = prog_start + t_program
            bank_line.free_at = prog_end
            bank_line.busy_time += t_program
            bank_line.ops += 1
            if hooked:
                try:
                    self._page_programmed(dest, bank_line, channel_line,
                                          xfer_start, xfer_end, prog_start,
                                          prog_end, verdict)
                except ProgramFailError as err:
                    return end, MoveStop(page, payload, issue, err)
            dests.append(dest)
            moved(page, dest)
            if prog_end > end:
                end = prog_end
            page += 1

    def erase_block(self, channel: int, bank: int, block: int,
                    start_time: float = 0.0) -> FlashOpResult:
        """Erase one block: the bank is busy for ``t_erase`` and all
        pages in the block return to the erased state."""
        faults = self.faults
        verdict = None
        if faults is not None:
            faults.advance(start_time)
            verdict = faults.erase_check((channel, bank, block))
        line = self.bank_lines[channel][bank]
        start, end = line.reserve(start_time, self.timing.t_erase)
        if self.probe is not None:
            self.probe.erase(line.name, start, end, verdict is not None)
        if verdict is not None:
            self.stats.count("erase_fails")
            faults.count("erase_fails")
            raise EraseFailError(channel, bank, block, fail_time=end,
                                 reason=verdict)
        if self.store_data:
            base = PhysicalPageAddress(channel, bank, block, 0)
            base_idx = ppa_to_index(base, self.geometry)
            for offset in range(self.geometry.pages_per_block):
                self._programmed.discard(base_idx + offset)
                self._pages.pop(base_idx + offset, None)
                self._checksums.pop(base_idx + offset, None)
        if faults is not None:
            base = PhysicalPageAddress(channel, bank, block, 0)
            faults.note_erase((channel, bank, block),
                              ppa_to_index(base, self.geometry),
                              self.geometry.pages_per_block, end)
        self.stats.count("blocks_erased")
        result = FlashOpResult(start_time=start, end_time=end, completions=[end])
        result.stats.count("blocks_erased")
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _read_chain(self, ppas: Sequence[PhysicalPageAddress],
                    start_time: float,
                    completions: Optional[List[float]] = None) -> float:
        """The read reserve chain of a batch, one page at a time in FCFS
        issue order with the Timeline bookkeeping inlined: the command
        reaches the die after ``t_cmd`` (latency only: command packets
        are tiny and interleave with data on the bus), the die senses
        for ``t_read``, then the page moves over the channel bus.

        With an injector attached each page first checks for a dead
        channel and afterwards walks the ECC retry ladder; probe events
        are emitted per page at the same point. ``completions``, when
        given, receives the per-page completion times; callers that only
        need the batch end time (the host I/O engine) pass None. The
        caller accounts ``pages_read`` stats."""
        timing = self.timing
        t_read = timing.t_read
        issue = start_time + timing.t_cmd
        xfer = self._page_xfer
        channel_lines = self.channel_lines
        bank_lines = self.bank_lines
        faults = self.faults
        hooked = faults is not None or self.probe is not None
        append = completions.append if completions is not None else None
        end_time = start_time
        for ppa in ppas:
            c = ppa.channel
            if faults is not None:
                faults.advance(start_time)
                if faults.channel_dead(c):
                    faults.count("dead_channel_reads")
                    raise UncorrectableError(ppa, fail_time=start_time,
                                             reason="channel_dead")
            channel = channel_lines[c]
            bank = bank_lines[c][ppa.bank]
            read_start = bank.free_at
            if read_start < issue:
                read_start = issue
            read_end = read_start + t_read
            bank.busy_time += t_read
            bank.ops += 1
            xfer_start = channel.free_at
            if xfer_start < read_end:
                xfer_start = read_end
            xfer_end = xfer_start + xfer
            channel.free_at = xfer_end
            channel.busy_time += xfer
            channel.ops += 1
            # the die's page register is held until the transfer drains
            bank.free_at = xfer_end
            if hooked:
                xfer_end = self._page_read(ppa, bank, channel, xfer,
                                           read_start, read_end,
                                           xfer_start, xfer_end)
            if append is not None:
                append(xfer_end)
            if xfer_end > end_time:
                end_time = xfer_end
        return end_time

    def _page_read(self, ppa: PhysicalPageAddress, bank: Timeline,
                   channel: Timeline, xfer: float, read_start: float,
                   read_end: float, xfer_start: float,
                   xfer_end: float) -> float:
        """Observation and faults of one reserved page read: the probe
        event, then the retry ladder. Returns the page's completion
        time."""
        if self.probe is not None:
            self.probe.page_read(bank.name, channel.name, read_start,
                                 read_end, xfer_start, xfer_end,
                                 self.geometry.page_size)
        if self.faults is None:
            return xfer_end
        return self._apply_read_faults(ppa, bank, channel, xfer,
                                       read_start, xfer_end)

    def _apply_read_faults(self, ppa: PhysicalPageAddress, bank: Timeline,
                           channel: Timeline, xfer: float,
                           sense_start: float, first_end: float) -> float:
        """Walk the ECC read-retry ladder: each retry re-senses at a
        tuned reference voltage (longer than a default sense) and moves
        the page out again so the ECC engine can re-decode."""
        idx = ppa_to_index(ppa, self.geometry)
        plan = self.faults.read_plan(
            idx, (ppa.channel, ppa.bank, ppa.block, ppa.page), sense_start)
        end = first_end
        for factor in plan.sense_factors:
            retry_start, retry_end = bank.reserve(end,
                                                  self.timing.t_read * factor)
            xfer_start, xfer_end = channel.reserve(retry_end, xfer)
            if bank.free_at < xfer_end:
                bank.free_at = xfer_end
            if self.probe is not None:
                self.probe.read_retry(bank.name, channel.name, retry_start,
                                      retry_end, xfer_start, xfer_end,
                                      self.geometry.page_size)
            end = xfer_end
        if plan.retries:
            self.stats.count("read_retries", plan.retries)
            self.faults.count("read_retries", plan.retries)
            if self.probe is not None:
                self.probe.count("flash.read_retries", plan.retries)
        if plan.uncorrectable:
            self.stats.count("uncorrectable_reads")
            self.faults.count("uncorrectable_reads")
            raise UncorrectableError(ppa, fail_time=end,
                                     retries=plan.retries,
                                     reason=plan.reason)
        return end

    def _program_chain(self, ppas: Sequence[PhysicalPageAddress],
                       start_time: float,
                       data: Optional[Sequence[Optional[np.ndarray]]],
                       completions: Optional[List[float]] = None) -> float:
        """The program reserve chain of a batch (see :meth:`_read_chain`):
        per page the data moves in over the channel, then the bank
        programs for ``t_program``. With an injector attached each page
        first asks for a program verdict; a failing page skips the
        NAND-state update, still costs its bus and array time, and
        raises :class:`ProgramFailError` after observation."""
        timing = self.timing
        t_program = timing.t_program
        issue = start_time + timing.t_cmd
        geometry = self.geometry
        xfer = self._page_xfer
        channel_lines = self.channel_lines
        bank_lines = self.bank_lines
        store = self.store_data
        faults = self.faults
        hooked = faults is not None or self.probe is not None
        append = completions.append if completions is not None else None
        end_time = start_time
        verdict = None
        for position, ppa in enumerate(ppas):
            if faults is not None:
                faults.advance(start_time)
                verdict = faults.program_check(
                    ppa_to_index(ppa, geometry),
                    (ppa.channel, ppa.bank, ppa.block, ppa.page))
            if store and verdict is None:
                self._store_page(ppa, data[position]
                                 if data is not None else None)
            c = ppa.channel
            channel = channel_lines[c]
            bank = bank_lines[c][ppa.bank]
            xfer_start = channel.free_at
            if xfer_start < issue:
                xfer_start = issue
            xfer_end = xfer_start + xfer
            channel.free_at = xfer_end
            channel.busy_time += xfer
            channel.ops += 1
            prog_start = bank.free_at
            if prog_start < xfer_end:
                prog_start = xfer_end
            prog_end = prog_start + t_program
            bank.free_at = prog_end
            bank.busy_time += t_program
            bank.ops += 1
            if hooked:
                self._page_programmed(ppa, bank, channel, xfer_start,
                                      xfer_end, prog_start, prog_end,
                                      verdict)
            if append is not None:
                append(prog_end)
            if prog_end > end_time:
                end_time = prog_end
        return end_time

    def _store_page(self, ppa: PhysicalPageAddress,
                    payload: Optional[np.ndarray]) -> None:
        """The NAND-state update of one successful program: mark the page
        programmed and keep ``payload`` (zero-padded) with its checksum.
        """
        geometry = self.geometry
        idx = ppa_to_index(ppa, geometry)
        if idx in self._programmed:
            raise FlashStateError(
                f"program to already-programmed page {ppa} (erase first)")
        self._programmed.add(idx)
        if payload is not None:
            page = np.zeros(geometry.page_size, dtype=np.uint8)
            raw = np.asarray(payload, dtype=np.uint8).ravel()
            if raw.size > geometry.page_size:
                raise ValueError(f"payload of {raw.size} B exceeds page size")
            page[: raw.size] = raw
            self._pages[idx] = page
            self._checksums[idx] = _page_checksum(page)

    def _page_programmed(self, ppa: PhysicalPageAddress, bank: Timeline,
                         channel: Timeline, xfer_start: float,
                         xfer_end: float, prog_start: float,
                         prog_end: float, verdict: Optional[str]) -> None:
        """Observation and fault bookkeeping of one reserved page
        program (see :meth:`_page_read`)."""
        if self.probe is not None:
            self.probe.page_program(channel.name, bank.name, xfer_start,
                                    xfer_end, prog_start, prog_end,
                                    self.geometry.page_size)
        faults = self.faults
        if verdict is not None:
            # the attempt cost real bus and array time before the status
            # register reported the failure
            self.stats.count("program_fails")
            faults.count("program_fails")
            raise ProgramFailError(ppa, fail_time=prog_end, reason=verdict)
        if faults is not None:
            faults.note_program(ppa_to_index(ppa, self.geometry), prog_end)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def channel_utilization(self, horizon: float) -> List[float]:
        return [line.utilization(horizon) for line in self.channel_lines]

    def reset_time(self) -> None:
        """Reset all timelines to t=0 (page contents are preserved)."""
        for line in self.channel_lines:
            line.reset()
        for bank_row in self.bank_lines:
            for line in bank_row:
                line.reset()
        if self.faults is not None:
            self.faults.note_time_reset()
