"""Greedy garbage collection for the page-mapped FTL.

The paper's prototype reserves 10 % of capacity as over-provisioning for
background GC (§6.1) and triggers collection when the free units of a
(channel, bank) combination drop below a threshold, "typically 10 %"
(§4.2). Victim selection is greedy (fewest live pages); live pages are
relocated within the same (channel, bank) so the striping (FTL) or
building-block placement (STL) invariants survive collection.

The reverse lookup is the victim's own owner slots
(:attr:`~repro.ftl.mapping.BlockState.owners`): a moved page's
destination takes the owner its source held, an LPN here.

:class:`RelocatingCollector` holds what this collector and the NDS one
(:mod:`repro.core.gc`) share: the trigger, the victim loop, the traced
collect step, the relocation step, grown-bad-block retirement, the
recovery context, and the program re-drive that every write path and
relocation take after a program failure. A subclass supplies the owner
patch (:meth:`RelocatingCollector._moved`), its read-issue rule and its
names.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.faults.errors import EraseFailError, ProgramFailError
from repro.ftl.mapping import OutOfSpaceError, PageMapFTL, PlaneAllocator
from repro.nvm.flash import FlashArray
from repro.nvm.geometry import Geometry
from repro.sim.stats import StatSet

__all__ = ["GarbageCollector", "GcResult", "RelocatingCollector"]


def _low_mark(watermark: float, pages_per_bank: int) -> int:
    """Smallest free-page count ``n`` with ``n / pages_per_bank >=
    watermark``: ``free_pages < n`` is then bit-equal to the float test
    ``free_fraction < watermark``."""
    mark = math.ceil(watermark * pages_per_bank)
    while mark > 0 and (mark - 1) / pages_per_bank >= watermark:
        mark -= 1
    while mark / pages_per_bank < watermark:
        mark += 1
    return mark


@dataclass
class GcResult:
    """What one GC invocation did and how long it took."""

    ran: bool
    end_time: float
    pages_relocated: int = 0
    blocks_erased: int = 0
    stats: StatSet = field(default_factory=StatSet)


class RelocatingCollector:
    """Collection, relocation and bad-block machinery shared by both
    collectors, and the one program re-drive (:meth:`program_page`).

    A live page's owner sits in its block's owner slot (an LPN here, a
    leaf or a parity key in the STL). A subclass provides
    :meth:`_moved`, a thin public ``collect`` over
    :meth:`_traced_collect`, and these class constants:

    * ``CHAINED``, the read-issue rule of a collection (docs/MODEL.md):
      with True each read after the first moved page issues at the
      running end, with False every read issues at the start time;
    * ``LAYER``, the trace layer name;
    * ``RELOCATED``, the result's relocation-count attribute (also the
      ``probe.gc`` label), and ``STAT_PREFIX`` for the result's stats;
    * ``RESULT``, the result type, built as
      ``RESULT(ran, end_time, relocated, blocks_erased)``.
    """

    def __init__(self, flash: FlashArray, geometry: Geometry,
                 planes: Dict[Tuple[int, int], PlaneAllocator],
                 threshold: float, policy: str) -> None:
        if not (0.0 < threshold < 1.0):
            raise ValueError("GC threshold must be in (0, 1)")
        if policy not in ("greedy", "fifo", "cost-benefit"):
            raise ValueError(f"unknown GC policy {policy!r}")
        self.flash = flash
        self.geometry = geometry
        self.planes = planes
        self.threshold = threshold
        #: the trigger as a free-page count: ``free_pages < trigger_mark``
        #: is bit-equal to ``free_pages / pages_per_bank < threshold``
        self.trigger_mark = _low_mark(threshold, geometry.pages_per_bank)
        self.policy = policy
        #: (channel, bank, block) of every block a :meth:`_relocate` is
        #: emptying; a nested collection never takes one as its victim
        self._relocating: Set[Tuple[int, int, int]] = set()
        self.total_relocated = 0
        self.total_erased = 0
        self.total_retired = 0
        #: the owning system's :class:`~repro.obs.probe.Probe` while a
        #: trace or metrics subscriber is attached, else None;
        #: collections are traced as instants, never duration spans — a
        #: GC child span would steal critical-path attribution from the
        #: flash work it triggered
        self.probe = None

    def _recovery(self):
        """Context for internal relocation traffic: probabilistic fault
        draws are suppressed (the controller verifies its own moves)."""
        faults = self.flash.faults
        return faults.suppress() if faults is not None else nullcontext()

    def _moved(self, owner, old_ppa: int, new_ppa: int) -> None:
        """Point ``owner``'s map entry from page index ``old_ppa`` to
        ``new_ppa`` (the owner slots are already patched)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _traced_collect(self, channel: int, bank: int, now: float,
                        target: Optional[float] = None,
                        max_victims: Optional[int] = None):
        """One collection under the recovery context, reported to the
        probe when it ran."""
        with self._recovery():
            result = self._collect(channel, bank, now, target, max_victims)
        if self.probe is not None and result.ran:
            self.probe.gc(self.LAYER, now, result.end_time, channel, bank,
                          self.RELOCATED, getattr(result, self.RELOCATED),
                          result.blocks_erased)
        return result

    def _collect(self, channel: int, bank: int, now: float,
                 target: Optional[float] = None,
                 max_victims: Optional[int] = None):
        """The victim loop of one (channel, bank).

        Collects greedy victims while the plane's free fraction is below
        ``target`` (default: the trigger threshold). It stops after
        ``max_victims`` erased blocks, when every candidate is fully
        valid (erasing one would gain nothing), or when the plane has no
        free page left for a move. An erase failure retires the victim
        and the loop goes on. What it moved and erased is counted even
        when it stops early. A block that a :meth:`_relocate` further
        up the stack is emptying is never a victim here.
        """
        plane = self.planes[(channel, bank)]
        per_bank = self.geometry.pages_per_bank
        per_block = self.geometry.pages_per_block
        if target is None:
            target = self.threshold
        end = now
        relocated = erased = 0
        ran = False
        while plane.free_pages / per_bank < target:
            if max_victims is not None and erased >= max_victims:
                break
            victims = plane.victim_candidates(self.policy)
            if self._relocating:
                victims = [b for b in victims
                           if (channel, bank, b) not in self._relocating]
            if not any(plane.blocks[b].live_pages() < per_block
                       for b in victims):
                break
            victim = victims[0]
            end, moved, complete = self._relocate(
                plane, victim, now, end, self.CHAINED, retiring=False)
            relocated += moved
            if not complete:
                break
            try:
                erased_at = self.flash.erase_block(channel, bank, victim, end)
            except EraseFailError as err:
                # live pages are already out; the block is grown bad
                self._retire(plane, victim)
                end = max(end, err.fail_time)
                ran = True
                continue
            plane.release_block(victim)
            end = max(end, erased_at)
            erased += 1
            ran = True
        self.total_relocated += relocated
        self.total_erased += erased
        result = self.RESULT(ran, end, relocated, erased)
        result.stats.count(self.STAT_PREFIX + self.RELOCATED, relocated)
        result.stats.count(self.STAT_PREFIX + "blocks_erased", erased)
        return result

    # ------------------------------------------------------------------
    def _relocate(self, plane: PlaneAllocator, block: int, now: float,
                  end: float, chained: bool,
                  retiring: bool) -> Tuple[float, int, bool]:
        """Move the live pages of ``block`` to ``plane``'s append point.

        The pages move through one :meth:`FlashArray.move_chain`: per
        page, in page order, it reserves the read, takes the verified
        payload, allocates the destination to the page's owner and
        reserves the program, and then empties the source slot and
        calls the owner hook with both page indices. Reads issue at
        ``now``; with ``chained`` every read after the first moved page
        issues at the running end instead. ``end`` is the running end on
        entry. The victim's ``live`` count falls by the pages moved, once,
        on the way out.

        Where the chain stops, the page in flight goes through
        :meth:`program_page`, which re-drives a failed program, and the
        chain runs on from the next page. With no free page a collection
        (``retiring`` False) stops, and a retirement collects the plane
        once and goes on. A page leaves its slot only once its program
        succeeded, so a stop or an :class:`OutOfSpaceError` leaves the
        page in flight live.

        Returns ``(end, moved, complete)``.
        """
        flash = self.flash
        channel, bank = plane.channel, plane.bank
        block_base = plane.base + block * self.geometry.pages_per_block
        state = plane._state(block)
        owners = state.owners
        allocate = plane.allocate_page
        moved = self._moved

        def place() -> Optional[int]:
            try:
                return allocate(owner)
            except OutOfSpaceError:
                if retiring:
                    raise
                return None

        #: destinations programmed
        dests: list = []
        page = 0
        busy = (channel, bank, block)
        self._relocating.add(busy)
        try:
            while True:
                end, stop = flash.move_chain(
                    channel, bank, block, owners, page, allocate, moved,
                    now, end, chained, dests)
                if stop is None:
                    break
                page, payload, issue, dest, err = stop
                owner = owners[page]
                if err is None and retiring:
                    self._collect(channel, bank, issue)
                dest, done = self.program_page(
                    dest, issue, (payload,), plane.invalidate, place, err)
                if dest is None:
                    # a collection found no free page
                    return max(end, done), len(dests), False
                dests.append(dest)
                owners[page] = None
                moved(owner, block_base + page, dest)
                end = max(end, done)
                page += 1
        finally:
            self._relocating.discard(busy)
            state.live -= len(dests)
            if retiring:
                self.total_relocated += len(dests)
        return end, len(dests), True

    # ------------------------------------------------------------------
    # grown-bad-block management
    # ------------------------------------------------------------------
    def _retire(self, plane: PlaneAllocator, block: int) -> None:
        plane.retire_block(block)
        self.total_retired += 1
        if self.flash.faults is not None:
            self.flash.faults.count("grown_bad_blocks")

    def program_page(self, ppa: Optional[int], issue: float,
                     data: Optional[Sequence],
                     unbind: Callable[[int], None],
                     place: Callable[[], Optional[int]],
                     failed: Optional[ProgramFailError] = None
                     ) -> Tuple[Optional[int], float]:
        """Program one unit at ``issue`` (``data`` as for
        :meth:`FlashArray.program_pages`), re-driven through grown bad
        blocks (§4.2). ``ppa`` is the page index the unit is bound to
        (None: ``place()`` it first), and ``failed`` a
        ``ProgramFailError`` the caller's own program of ``ppa`` already
        raised.

        On each failure: ``unbind(ppa)``, retire the block the error
        names (its decoded ``err.ppa``), ``place()`` the unit again and
        program it at the retirement's end. Returns the page index
        holding the unit and the program's end, or ``(None, issue)`` once
        ``place`` returns None.
        """
        while True:
            if ppa is None:
                ppa = place()
                if ppa is None:
                    return None, issue
            if failed is None:
                try:
                    return ppa, self.flash.program_pages((ppa,), issue, data)
                except ProgramFailError as err:
                    failed = err
            unbind(ppa)
            where = failed.ppa
            issue = self.retire_block(where.channel, where.bank, where.block,
                                      failed.fail_time)
            ppa = failed = None

    def retire_block(self, channel: int, bank: int, block: int,
                     now: float) -> float:
        """Grown-bad-block handling: relocate the block's live pages
        within the plane, then take the block out of service for good.

        Returns the model time when relocation traffic finished. Raises
        :class:`~repro.ftl.mapping.OutOfSpaceError` when the plane
        cannot absorb the survivors even after collection.
        """
        plane = self.planes[(channel, bank)]
        # survivors must not land back in the block being retired
        plane.withdraw_block(block)
        with self._recovery():
            end = self._relocate(plane, block, now, now, chained=True,
                                 retiring=True)[0]
            self._retire(plane, block)
        return end


class GarbageCollector(RelocatingCollector):
    """Greedy per-(channel, bank) garbage collector.

    A page's owner slot holds its LPN, the reverse lookup that patches
    the forward map when live pages move. (For NDS the slots name the
    building blocks, §4.2; see :mod:`repro.core.gc`.)
    """

    CHAINED = True
    LAYER, RELOCATED, STAT_PREFIX = "ftl", "pages_relocated", "gc_"
    RESULT = GcResult

    def __init__(self, ftl: PageMapFTL, flash: FlashArray,
                 threshold: float = 0.10, policy: str = "greedy") -> None:
        super().__init__(flash, ftl.geometry, ftl.planes, threshold, policy)
        self.ftl = ftl

    # ------------------------------------------------------------------
    def _moved(self, lpn: int, old_ppa: int, new_ppa: int) -> None:
        self.ftl.map[lpn] = new_ppa

    def collect(self, channel: int, bank: int, now: float) -> GcResult:
        """Collect victims in one (channel, bank) until above threshold.

        Returns timing (reads + programs + erase are charged to the
        flash timelines) and relocation counts.
        """
        return self._traced_collect(channel, bank, now)
