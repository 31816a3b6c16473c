"""Greedy garbage collection for the page-mapped FTL.

The paper's prototype reserves 10 % of capacity as over-provisioning for
background GC (§6.1) and triggers collection when the free units of a
(channel, bank) combination drop below a threshold, "typically 10 %"
(§4.2). Victim selection is greedy (fewest live pages); valid pages are
relocated within the same (channel, bank) so the striping (FTL) or
building-block placement (STL) invariants survive collection.

:class:`RelocatingCollector` holds what this collector and the NDS one
(:mod:`repro.core.gc`) share: the per-page relocation step, grown-bad-
block retirement and the recovery context. A subclass supplies the
reverse-map payload (:meth:`RelocatingCollector._moved`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.faults.errors import EraseFailError, ProgramFailError
from repro.ftl.mapping import OutOfSpaceError, PageMapFTL, PlaneAllocator
from repro.nvm.address import PhysicalPageAddress, ppa_to_index
from repro.nvm.flash import FlashArray
from repro.nvm.geometry import Geometry
from repro.sim.stats import StatSet

__all__ = ["GarbageCollector", "GcResult", "RelocatingCollector"]


@dataclass
class GcResult:
    """What one GC invocation did and how long it took."""

    ran: bool
    end_time: float
    pages_relocated: int = 0
    blocks_erased: int = 0
    stats: StatSet = field(default_factory=StatSet)


class RelocatingCollector:
    """Relocation and bad-block machinery shared by both collectors.

    ``reverse`` maps a physical page index to the payload that names
    its owner (an LPN here, a building-block reference in the STL);
    every live page with an owner has an entry. A subclass provides
    :meth:`_moved` and ``_collect(channel, bank, now)``, which a
    retirement runs when the plane has no free page.
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
        self.policy = policy
        self.reverse: Dict[int, object] = {}
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

    def _moved(self, owner, new_ppa: PhysicalPageAddress) -> None:
        """Point ``owner``'s map entry at ``new_ppa`` (the reverse table
        is already patched)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _relocate(self, plane: PlaneAllocator, block: int, now: float,
                  end: float, chained: bool,
                  retiring: bool) -> Tuple[float, int, bool]:
        """Move the live pages of ``block`` to ``plane``'s append point.

        Per page, in page order: reserve the read, take the verified
        payload, invalidate, allocate, reserve the program (a
        ``ProgramFailError`` retires the destination block and re-drives
        at the next free page), then patch the reverse table and the
        owner's map. Reads issue at ``now``; with ``chained`` every read
        after the first moved page issues at the running end instead.
        ``end`` is the running end on entry.

        With no free page, a collection (``retiring`` False) gives the
        page back and stops; a retirement collects the plane once and
        raises :class:`OutOfSpaceError` if that is not enough.

        Returns ``(end, moved, complete)``.
        """
        flash = self.flash
        read_page = flash.read_page
        program_page = flash.program_page
        page_data = flash.page_data if flash.store_data else None
        reverse = self.reverse
        moved_hook = self._moved
        geometry = self.geometry
        per_block = geometry.pages_per_block
        channel, bank = plane.channel, plane.bank
        plane_base = ((channel * geometry.banks_per_channel + bank)
                      * geometry.blocks_per_bank)
        block_base = (plane_base + block) * per_block
        state = plane._state(block)
        # with nothing observing the array (no injector, no probe,
        # timing-only) a read needs only its plane: one address stands
        # for every page of the block
        observed = (flash.store_data or flash.faults is not None
                    or flash.probe is not None)
        old_ppa = PhysicalPageAddress(channel, bank, block, 0)
        moved = reads = 0
        try:
            for page in range(per_block):
                if not state.valid[page]:
                    continue
                if observed:
                    old_ppa = PhysicalPageAddress(channel, bank, block, page)
                owner = reverse.get(block_base + page)
                read_end = read_page(old_ppa,
                                     end if chained and moved else now)
                reads += 1
                payload = page_data(old_ppa) if page_data else None
                state.valid[page] = False
                try:
                    new_ppa = plane.allocate_page()
                except OutOfSpaceError:
                    if not retiring:
                        state.valid[page] = True
                        return max(end, read_end), moved, False
                    self._collect(channel, bank, read_end)
                    new_ppa = plane.allocate_page()
                issue = read_end
                while True:
                    try:
                        prog_end = program_page(new_ppa, issue, payload)
                        break
                    except ProgramFailError as err:
                        # the destination block is grown bad: retire it
                        # (its other live pages move too) and re-drive
                        # at the next free page
                        plane.invalidate(new_ppa)
                        issue = self.retire_block(channel, bank,
                                                  new_ppa.block,
                                                  err.fail_time)
                        try:
                            new_ppa = plane.allocate_page()
                        except OutOfSpaceError:
                            if retiring:
                                raise
                            state.valid[page] = True
                            return max(end, issue), moved, False
                if owner is not None:
                    reverse.pop(block_base + page, None)
                    reverse[(plane_base + new_ppa.block) * per_block
                            + new_ppa.page] = owner
                    moved_hook(owner, new_ppa)
                if prog_end > end:
                    end = prog_end
                moved += 1
        finally:
            counters = flash.stats.counters
            if reads:
                counters["pages_read"] = counters.get("pages_read", 0) + reads
            if moved:
                counters["pages_programmed"] = \
                    counters.get("pages_programmed", 0) + moved
            if retiring:
                self.total_relocated += moved
        return end, moved, True

    # ------------------------------------------------------------------
    # grown-bad-block management
    # ------------------------------------------------------------------
    def _retire(self, plane: PlaneAllocator, block: int) -> None:
        plane.retire_block(block)
        self.total_retired += 1
        if self.flash.faults is not None:
            self.flash.faults.stats.count("grown_bad_blocks")

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

    Keeps the reverse PPA→LPN table needed to patch the forward map when
    live pages move. (For NDS the analogous reverse lookup maps physical
    units back to building blocks, §4.2; see :mod:`repro.core.gc`.)
    """

    def __init__(self, ftl: PageMapFTL, flash: FlashArray,
                 threshold: float = 0.10, policy: str = "greedy") -> None:
        super().__init__(flash, ftl.geometry, ftl.planes, threshold, policy)
        self.ftl = ftl

    # ------------------------------------------------------------------
    # reverse-map maintenance (called by the SSD on every map change)
    # ------------------------------------------------------------------
    def note_alloc(self, lpn: int, ppa: PhysicalPageAddress,
                   old: Optional[PhysicalPageAddress]) -> None:
        if old is not None:
            self.reverse.pop(ppa_to_index(old, self.ftl.geometry), None)
        self.reverse[ppa_to_index(ppa, self.ftl.geometry)] = lpn

    def note_trim(self, ppa: Optional[PhysicalPageAddress]) -> None:
        if ppa is not None:
            self.reverse.pop(ppa_to_index(ppa, self.ftl.geometry), None)

    def _moved(self, lpn: int, new_ppa: PhysicalPageAddress) -> None:
        self.ftl.map[lpn] = new_ppa

    # ------------------------------------------------------------------
    def needs_collection(self, channel: int, bank: int) -> bool:
        return self.ftl.free_fraction(channel, bank) < self.threshold

    def collect(self, channel: int, bank: int, now: float) -> GcResult:
        """Collect victims in one (channel, bank) until above threshold.

        Returns timing (reads + programs + erase are charged to the
        flash timelines) and relocation counts.
        """
        with self._recovery():
            result = self._collect(channel, bank, now)
        if self.probe is not None and result.ran:
            self.probe.gc("ftl", now, result.end_time, channel, bank,
                          "pages_relocated", result.pages_relocated,
                          result.blocks_erased)
        return result

    def _collect(self, channel: int, bank: int, now: float) -> GcResult:
        result = GcResult(ran=False, end_time=now)
        plane = self.ftl.planes[(channel, bank)]
        geometry = self.ftl.geometry
        while self.needs_collection(channel, bank):
            victims = plane.victim_candidates(self.policy)
            if not any(plane.blocks[b].live_pages() < geometry.pages_per_block
                       for b in victims):
                # no candidate, or all fully valid: erasing one gains no
                # space, so the loop could never reach its target
                break
            victim = victims[0]
            # the first read issues at ``now``, each later one after the
            # previous relocation (docs/MODEL.md)
            result.end_time, moved, complete = self._relocate(
                plane, victim, now, result.end_time, chained=True,
                retiring=False)
            result.pages_relocated += moved
            if not complete:
                # nothing free in this plane at all: give back and stop
                return result
            try:
                erase = self.flash.erase_block(channel, bank, victim,
                                               result.end_time)
            except EraseFailError as err:
                # live pages are already out; the block is grown bad
                self._retire(plane, victim)
                result.end_time = max(result.end_time, err.fail_time)
                result.ran = True
                continue
            plane.release_block(victim)
            result.end_time = max(result.end_time, erase.end_time)
            result.blocks_erased += 1
            result.ran = True
        self.total_relocated += result.pages_relocated
        self.total_erased += result.blocks_erased
        result.stats.count("gc_pages_relocated", result.pages_relocated)
        result.stats.count("gc_blocks_erased", result.blocks_erased)
        return result
