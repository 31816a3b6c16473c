"""Greedy garbage collection for the page-mapped FTL.

The paper's prototype reserves 10 % of capacity as over-provisioning for
background GC (§6.1) and triggers collection when the free units of a
(channel, bank) combination drop below a threshold, "typically 10 %"
(§4.2). Victim selection is greedy (fewest live pages); valid pages are
relocated within the same (channel, bank) so the striping (FTL) or
building-block placement (STL) invariants survive collection.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.faults.errors import EraseFailError, ProgramFailError
from repro.ftl.mapping import OutOfSpaceError, PageMapFTL
from repro.nvm.address import PhysicalPageAddress, ppa_to_index
from repro.nvm.flash import FlashArray
from repro.sim.stats import StatSet

__all__ = ["GarbageCollector", "GcResult"]


@dataclass
class GcResult:
    """What one GC invocation did and how long it took."""

    ran: bool
    end_time: float
    pages_relocated: int = 0
    blocks_erased: int = 0
    stats: StatSet = field(default_factory=StatSet)


class GarbageCollector:
    """Greedy per-(channel, bank) garbage collector.

    Keeps the reverse PPA→LPN table needed to patch the forward map when
    live pages move. (For NDS the analogous reverse lookup maps physical
    units back to building blocks, §4.2; see :mod:`repro.core.gc`.)
    """

    def __init__(self, ftl: PageMapFTL, flash: FlashArray,
                 threshold: float = 0.10, policy: str = "greedy") -> None:
        if not (0.0 < threshold < 1.0):
            raise ValueError("GC threshold must be in (0, 1)")
        if policy not in ("greedy", "fifo", "cost-benefit"):
            raise ValueError(f"unknown GC policy {policy!r}")
        self.ftl = ftl
        self.flash = flash
        self.threshold = threshold
        self.policy = policy
        self.reverse: Dict[int, int] = {}
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
            state = plane.blocks[victim]
            moved_any = False
            for page in range(geometry.pages_per_block):
                if not state.valid[page]:
                    continue
                old_ppa = PhysicalPageAddress(channel, bank, victim, page)
                lpn = self.reverse.get(ppa_to_index(old_ppa, geometry))
                read = self.flash.read_pages([old_ppa], result.end_time if moved_any else now)
                payload = None
                if self.flash.store_data:
                    payload = [self.flash.page_data(old_ppa)]
                plane.invalidate(old_ppa)
                try:
                    new_ppa = plane.allocate_page()
                except OutOfSpaceError:
                    # Nothing free in this plane at all: give back and stop.
                    state.valid[page] = True
                    result.end_time = max(result.end_time, read.end_time)
                    return result
                issue = read.end_time
                while True:
                    try:
                        program = self.flash.program_pages([new_ppa], issue,
                                                           data=payload)
                        break
                    except ProgramFailError as err:
                        # structural bad block under the append point:
                        # retire it (its other live pages move too) and
                        # retry at the next free page
                        plane.invalidate(new_ppa)
                        issue = self.retire_block(channel, bank,
                                                  new_ppa.block,
                                                  err.fail_time)
                        try:
                            new_ppa = plane.allocate_page()
                        except OutOfSpaceError:
                            state.valid[page] = True
                            result.end_time = max(result.end_time, issue)
                            return result
                if lpn is not None:
                    self.ftl.map[lpn] = new_ppa
                    self.reverse.pop(ppa_to_index(old_ppa, geometry), None)
                    self.reverse[ppa_to_index(new_ppa, geometry)] = lpn
                result.end_time = max(result.end_time, program.end_time)
                result.pages_relocated += 1
                moved_any = True
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

    # ------------------------------------------------------------------
    # grown-bad-block management
    # ------------------------------------------------------------------
    def _retire(self, plane, block: int) -> None:
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
        plane = self.ftl.planes[(channel, bank)]
        geometry = self.ftl.geometry
        state = plane._state(block)
        # survivors must not land back in the block being retired
        plane.withdraw_block(block)
        end = now
        with self._recovery():
            for page in range(geometry.pages_per_block):
                if not state.valid[page]:
                    continue
                old_ppa = PhysicalPageAddress(channel, bank, block, page)
                lpn = self.reverse.get(ppa_to_index(old_ppa, geometry))
                read = self.flash.read_pages([old_ppa], end)
                payload = None
                if self.flash.store_data:
                    payload = [self.flash.page_data(old_ppa)]
                state.valid[page] = False
                try:
                    new_ppa = plane.allocate_page()
                except OutOfSpaceError:
                    self._collect(channel, bank, read.end_time)
                    new_ppa = plane.allocate_page()
                issue = read.end_time
                while True:
                    try:
                        program = self.flash.program_pages([new_ppa], issue,
                                                           data=payload)
                        break
                    except ProgramFailError as err:
                        # the survivor's new home is grown bad as well
                        plane.invalidate(new_ppa)
                        issue = self.retire_block(channel, bank,
                                                  new_ppa.block,
                                                  err.fail_time)
                        new_ppa = plane.allocate_page()
                if lpn is not None:
                    self.ftl.map[lpn] = new_ppa
                    self.reverse.pop(ppa_to_index(old_ppa, geometry), None)
                    self.reverse[ppa_to_index(new_ppa, geometry)] = lpn
                self.total_relocated += 1
                end = max(end, program.end_time)
            self._retire(plane, block)
        return end
