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

Every page method takes plain int page indices
(:func:`~repro.nvm.address.ppa_to_index`) and counts the pages it
moves; an index is decoded to a
:class:`~repro.nvm.address.PhysicalPageAddress` only to build a typed
fault error.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.faults.errors import (EraseFailError, ProgramFailError,
                                 UncorrectableError)
from repro.nvm.address import index_to_ppa
from repro.nvm.geometry import Geometry
from repro.nvm.timing import NvmTiming
from repro.sim.resources import Timeline
from repro.sim.stats import StatSet

__all__ = ["FlashArray", "FlashStateError", "EccError", "MoveStop",
           "OutOfSpaceError"]


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


class MoveStop(NamedTuple):
    """Where :meth:`FlashArray.move_chain` stopped short of the end of
    its block: the page in flight (read, still holding its owner, not
    moved) and its payload. With ``error`` None no destination was free
    (``dest`` is None) and ``issue`` is the read's completion; otherwise
    the program to page index ``dest`` failed with ``error``."""

    page: int
    payload: Optional[np.ndarray]
    issue: float
    dest: Optional[int]
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
        #: a page index's plane number is ``index // _plane_pages``; per
        #: plane number, its channel's and its bank's timelines
        self._plane_pages = geometry.pages_per_bank
        banks = geometry.banks_per_channel
        planes = range(geometry.channels * banks)
        self._plane_channel = [self.channel_lines[n // banks] for n in planes]
        self._plane_bank = [self.bank_lines[n // banks][n % banks]
                            for n in planes]

    def attach_faults(self, injector) -> None:
        """Attach a fault injector, with this array's geometry (None
        detaches). Attach before any timed operations so wear/retention
        bookkeeping is complete."""
        if injector is not None:
            injector.attach(self.geometry)
        self.faults = injector

    # ------------------------------------------------------------------
    # functional access
    # ------------------------------------------------------------------
    def page_data(self, idx: int, verify: bool = True) -> np.ndarray:
        """Contents of programmed page index ``idx`` (zero-filled if never
        written with data, e.g. timing-only programs).

        ``verify`` checks the page's ECC checksum and raises
        :class:`EccError` on injected corruption."""
        data = self._pages.get(idx)
        if data is None:
            return np.zeros(self.geometry.page_size, dtype=np.uint8)
        if verify and idx in self._checksums:
            if _page_checksum(data) != self._checksums[idx]:
                raise EccError("uncorrectable bit error in "
                               f"{index_to_ppa(idx, self.geometry)}")
        return data

    def corrupt_page(self, idx: int, byte_offset: int = 0) -> None:
        """Failure injection: flip bits in page index ``idx``'s stored
        content so the next verified read raises :class:`EccError`."""
        data = self._pages.get(idx)
        if data is None:
            raise FlashStateError(f"page {index_to_ppa(idx, self.geometry)} "
                                  "holds no data to corrupt")
        data[byte_offset % data.size] ^= 0xFF

    def is_programmed(self, idx: int) -> bool:
        return idx in self._programmed

    # ------------------------------------------------------------------
    # timed operations
    # ------------------------------------------------------------------
    def read_pages(self, ppas: Sequence[int], start_time: float = 0.0
                   ) -> float:
        """Read a batch of page indices issued in order at
        ``start_time``; returns the batch's end and counts
        ``pages_read``.

        One reserve chain, a page at a time in FCFS issue order with the
        Timeline bookkeeping inlined (a page's plane number picks its
        bank and channel lines): the command reaches the die after
        ``t_cmd`` (latency only: command packets are tiny and interleave
        with data on the bus), the die senses for ``t_read``, then the
        page moves over the channel bus. The scheduler exposes exactly as
        much channel/bank parallelism as the pages allow, which is the
        effect the paper's Figures 1 and 5 are about, and a batch costs
        what its pages cost one call each at ``start_time``.

        With an injector attached (its plan advanced once per chain) each
        page first checks for a dead channel and afterwards walks the ECC
        retry ladder; probe events are emitted per page at the same
        point. A batch that raises counts the pages before the failing
        one."""
        timing = self.timing
        t_read = timing.t_read
        issue = start_time + timing.t_cmd
        xfer = self._page_xfer
        plane_pages = self._plane_pages
        plane_channel = self._plane_channel
        plane_bank = self._plane_bank
        banks = self.geometry.banks_per_channel
        faults = self.faults
        hooked = faults is not None or self.probe is not None
        end_time = start_time
        if faults is not None and ppas:
            faults.advance(start_time)
        try:
            for ppa in ppas:
                plane = ppa // plane_pages
                if faults is not None and faults.channel_dead(plane // banks):
                    faults.count("dead_channel_reads")
                    raise UncorrectableError(index_to_ppa(ppa, self.geometry),
                                             fail_time=start_time,
                                             reason="channel_dead")
                channel = plane_channel[plane]
                bank = plane_bank[plane]
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
                if xfer_end > end_time:
                    end_time = xfer_end
        except UncorrectableError:
            # the pages before the failing one completed their reads
            self.stats.count("pages_read", ppas.index(ppa))
            raise
        self.stats.count("pages_read", len(ppas))
        return end_time

    def program_pages(self, ppas: Sequence[int], start_time: float = 0.0,
                      data: Optional[Sequence[Optional[np.ndarray]]] = None
                      ) -> float:
        """Program a batch of page indices issued in order at
        ``start_time``; returns the batch's end and counts
        ``pages_programmed``.

        The reserve chain of :meth:`read_pages`' kind: per page the data
        moves in over the channel, then the bank programs for
        ``t_program``. ``data[i]``, when given, must be at most
        ``page_size`` bytes and is stored (zero-padded) for functional
        read-back. With an injector attached (its plan advanced once per
        chain) each page first asks for a program verdict; a failing
        page skips the NAND-state update, still costs its bus and array
        time, and raises :class:`ProgramFailError` after observation. A
        batch that raises counts no page."""
        timing = self.timing
        t_program = timing.t_program
        issue = start_time + timing.t_cmd
        xfer = self._page_xfer
        plane_pages = self._plane_pages
        plane_channel = self._plane_channel
        plane_bank = self._plane_bank
        store = self.store_data
        faults = self.faults
        hooked = faults is not None or self.probe is not None
        end_time = start_time
        verdict = None
        if faults is not None and ppas:
            faults.advance(start_time)
        for position, ppa in enumerate(ppas):
            if faults is not None:
                verdict = faults.program_check(ppa)
            if store and verdict is None:
                self._store_page(ppa, data[position]
                                 if data is not None else None)
            plane = ppa // plane_pages
            channel = plane_channel[plane]
            bank = plane_bank[plane]
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
            if prog_end > end_time:
                end_time = prog_end
        self.stats.count("pages_programmed", len(ppas))
        return end_time

    def move_chain(self, channel: int, bank: int, block: int,
                   owners: List[object], page: int,
                   allocate: Callable[[object], int],
                   moved: Callable[[object, int, int], None],
                   now: float, end: float, chained: bool,
                   dests: List[int]) -> Tuple[float, Optional[MoveStop]]:
        """Move the live pages of one block, from ``page`` on, to the
        page indices ``allocate`` hands out (a plane's
        ``allocate_page``): the relocation of one GC victim as one
        reserve chain.

        Per live page (``owners[page]`` not None), in page order:
        reserve the read, take the verified payload, allocate the
        destination to the page's owner, and reserve its program at the
        read's completion. A read issues at ``now``; with ``chained``, at
        the running ``end`` once a page has moved. Every read and program
        stays on the block's bank and channel lines, so both are looked
        up once; the reservations, the faults (dead channel, ECC ladder,
        program verdict) and the probe events of each page are those of
        a one-page :meth:`read_pages` and then :meth:`program_pages`, in
        that order, and only run when an injector, a probe or
        ``store_data`` is attached.

        ``dests`` receives each destination index once its program
        succeeded; the caller lowers the block's ``live`` count by
        ``len(dests)``. The chain counts its completed reads and
        successful programs on the way out, a raised error's included.
        Right after each successful program the source slot is emptied
        and ``moved(owner, source, dest)`` runs with the source's page
        index, so the caller patches the owner before the next read, as
        a page-at-a-time move would. A source keeps its owner until its program succeeds: a
        read error propagates, and a stop returns, with the page not
        moved.

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
        block_base = ((channel * geometry.banks_per_channel + bank)
                      * geometry.blocks_per_bank + block) * per_block
        channel_line = self.channel_lines[channel]
        bank_line = self.bank_lines[channel][bank]
        store = self.store_data
        faults = self.faults
        hooked = faults is not None or self.probe is not None
        verdict = None
        reads = 0
        before = len(dests)
        try:
            while True:
                while page < per_block and owners[page] is None:
                    page += 1
                if page == per_block:
                    return end, None
                start = end if chained and dests else now
                source = block_base + page
                if faults is not None:
                    faults.advance(start)
                    if faults.channel_dead(channel):
                        faults.count("dead_channel_reads")
                        raise UncorrectableError(index_to_ppa(source, geometry),
                                                 fail_time=start,
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
                reads += 1
                payload = self.page_data(source) if store else None
                owner = owners[page]
                try:
                    dest = allocate(owner)
                except OutOfSpaceError:
                    return end, MoveStop(page, payload, xfer_end, None, None)
                issue = xfer_end
                if faults is not None:
                    faults.advance(issue)
                    verdict = faults.program_check(dest)
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
                        return end, MoveStop(page, payload, issue, dest, err)
                dests.append(dest)
                owners[page] = None
                moved(owner, source, dest)
                if prog_end > end:
                    end = prog_end
                page += 1
        finally:
            count = self.stats.count
            if reads:
                count("pages_read", reads)
            if len(dests) > before:
                count("pages_programmed", len(dests) - before)

    def erase_block(self, channel: int, bank: int, block: int,
                    start_time: float = 0.0) -> float:
        """Erase one block: the bank is busy for ``t_erase`` and all
        pages in the block return to the erased state. Returns the
        erase's end."""
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
            geometry = self.geometry
            per_block = geometry.pages_per_block
            base = ((channel * geometry.banks_per_channel + bank)
                    * geometry.blocks_per_bank + block) * per_block
            for idx in range(base, base + per_block):
                self._programmed.discard(idx)
                self._pages.pop(idx, None)
                self._checksums.pop(idx, None)
        if faults is not None:
            faults.note_erase((channel, bank, block))
        self.stats.count("blocks_erased")
        return end

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _page_read(self, ppa: int, bank: Timeline,
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

    def _apply_read_faults(self, idx: int, bank: Timeline,
                           channel: Timeline, xfer: float,
                           sense_start: float, first_end: float) -> float:
        """Walk the ECC read-retry ladder: each retry re-senses at a
        tuned reference voltage (longer than a default sense) and moves
        the page out again so the ECC engine can re-decode."""
        plan = self.faults.read_plan(idx, sense_start)
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
            raise UncorrectableError(index_to_ppa(idx, self.geometry),
                                     fail_time=end, retries=plan.retries,
                                     reason=plan.reason)
        return end

    def _store_page(self, idx: int, payload: Optional[np.ndarray]) -> None:
        """The NAND-state update of one successful program of page index
        ``idx``: mark the page programmed and keep ``payload``
        (zero-padded) with its checksum.
        """
        geometry = self.geometry
        if idx in self._programmed:
            raise FlashStateError(
                "program to already-programmed page "
                f"{index_to_ppa(idx, geometry)} (erase first)")
        self._programmed.add(idx)
        if payload is not None:
            page = np.zeros(geometry.page_size, dtype=np.uint8)
            raw = np.asarray(payload, dtype=np.uint8).ravel()
            if raw.size > geometry.page_size:
                raise ValueError(f"payload of {raw.size} B exceeds page size")
            page[: raw.size] = raw
            self._pages[idx] = page
            self._checksums[idx] = _page_checksum(page)

    def _page_programmed(self, ppa: int, bank: Timeline,
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
            raise ProgramFailError(index_to_ppa(ppa, self.geometry),
                                   fail_time=prog_end, reason=verdict)
        if faults is not None:
            faults.note_program(ppa, prog_end)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def reset_time(self) -> None:
        """Reset all timelines to t=0 (page contents are preserved)."""
        for line in self.channel_lines:
            line.reset()
        for bank_row in self.bank_lines:
            for line in bank_row:
                line.reset()
        if self.faults is not None:
            self.faults.note_time_reset()
