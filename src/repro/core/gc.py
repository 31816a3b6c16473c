"""NDS garbage collection (§4.2).

"Garbage collection in NDS is similar to that of a conventional NVM
storage device, except that NDS can maintain a reverse lookup table
that records the building blocks associated with the erasing unit."
That table is the erase block's owner slots
(:attr:`~repro.ftl.mapping.BlockState.owners`), modelled as the 8 bytes
of out-of-band metadata per unit the paper describes. A data unit's
slot holds its live leaf (:class:`~repro.core.btree.BlockEntry`), and
a relocation finds the unit's position in it with
``entry.pages.index(old_ppa)``, so it patches the leaf in place without
a tree walk; ``resize_space`` moves the entries themselves into the new
index, so a slot always holds the index's own. A parity unit's slot
holds its ``(space_id, block coordinate)`` key in the parity store.
Relocation stays within the same (channel, bank) to preserve block
parallelism. The victim loop and the per-page move are shared with the
FTL collector (:class:`~repro.ftl.gc.RelocatingCollector`); this module
supplies the leaf patch and background collection.

Background collection does not scan the array. The collector owns
``low_planes``, the set of planes whose free fraction is below its
background watermark, and hands each plane a reference to it plus an
integer ``low_mark``; the plane's own mutators
(:class:`~repro.ftl.mapping.PlaneAllocator` ``allocate_page``,
``release_block``, ``withdraw_block``) keep both ``free_pages`` and the
set current. Nothing here writes ``free_pages`` or the set directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Set, Tuple

from repro.core.allocator import NdsAllocator
from repro.ftl.gc import RelocatingCollector, _low_mark
from repro.nvm.flash import FlashArray
from repro.sim.stats import StatSet

__all__ = ["NdsGarbageCollector", "NdsGcResult"]

#: modelled out-of-band bytes consumed per unit by the reverse table
OOB_BYTES_PER_UNIT = 8


@dataclass
class NdsGcResult:
    ran: bool
    end_time: float
    units_relocated: int = 0
    blocks_erased: int = 0
    stats: StatSet = field(default_factory=StatSet)


class NdsGarbageCollector(RelocatingCollector):
    """Greedy GC over the NDS allocator's planes."""

    CHAINED = False
    LAYER, RELOCATED, STAT_PREFIX = "stl", "units_relocated", "nds_gc_"
    RESULT = NdsGcResult

    def __init__(self, allocator: NdsAllocator, flash: FlashArray,
                 threshold: float = 0.10, policy: str = "greedy") -> None:
        super().__init__(flash, allocator.geometry, allocator.planes,
                         threshold, policy)
        self.allocator = allocator
        #: background GC cleans planes up to this free fraction
        self.watermark = min(0.9, 2.0 * threshold)
        #: (channel, bank) keys of the planes below ``watermark``,
        #: maintained by the planes themselves (see module docstring)
        self.low_planes: Set[Tuple[int, int]] = set()
        pages_per_bank = allocator.geometry.pages_per_bank
        low_mark = _low_mark(self.watermark, pages_per_bank)
        for key, plane in allocator.planes.items():
            plane.low_mark = low_mark
            plane.low_set = self.low_planes
            if plane.free_pages < low_mark:
                self.low_planes.add(key)
        #: relocation callback for parity units (owned by their
        #: ``(space_id, coord)`` key): called as
        #: ``parity_patcher(space_id, coord, new_ppa)`` with the
        #: destination's page index
        self.parity_patcher: Optional[Callable] = None

    # ------------------------------------------------------------------
    def reverse_table_bytes(self) -> int:
        """Modelled OOB footprint of the reverse table: one record per
        live unit."""
        return OOB_BYTES_PER_UNIT * sum(
            state.live for plane in self.planes.values()
            for state in plane.blocks.values())

    # ------------------------------------------------------------------
    def collect(self, channel: int, bank: int, now: float,
                target_fraction: float = None,
                max_victims: int = None) -> NdsGcResult:
        """Reclaim invalidated units in one (channel, bank).

        ``target_fraction`` overrides the trigger threshold (background
        GC cleans up to a higher watermark); ``max_victims`` bounds the
        work per invocation.
        """
        return self._traced_collect(channel, bank, now, target_fraction,
                                    max_victims)

    def collect_background(self, now: float,
                           budget_seconds: float) -> NdsGcResult:
        """Idle-time collection (§6.1: over-provisioning is reserved
        for *background* garbage collection).

        Cleans the fullest planes below :attr:`watermark` (2× the
        foreground trigger, at most 0.9) one victim each until the time
        budget runs out, so later foreground writes don't stall on
        inline GC. Only :attr:`low_planes` is visited, fullest first
        with ties in (channel, bank) order; with no plane below the
        watermark the call returns at once.
        """
        total = NdsGcResult(ran=False, end_time=now)
        low = self.low_planes
        if low:
            deadline = now + budget_seconds
            planes = self.allocator.planes
            for key in sorted(low, key=lambda k: (planes[k].free_pages, k)):
                if total.end_time >= deadline:
                    break
                if key not in low:
                    continue
                part = self.collect(key[0], key[1], total.end_time,
                                    target_fraction=self.watermark,
                                    max_victims=1)
                total.units_relocated += part.units_relocated
                total.blocks_erased += part.blocks_erased
                total.end_time = max(total.end_time, part.end_time)
                total.ran = total.ran or part.ran
        total.stats.count("nds_gc_units_relocated", total.units_relocated)
        total.stats.count("nds_gc_blocks_erased", total.blocks_erased)
        return total

    def _moved(self, owner, old_ppa: int, new_ppa: int) -> None:
        """Patch the B-tree leaf (or the parity store) that owns a
        relocated unit.

        A relocation never leaves its (channel, bank), so the leaf is
        rebound (:meth:`BlockEntry.rebind`) at the position that holds
        ``old_ppa``, without touching its usage record. The leaf always
        holds it: every path that empties a leaf slot empties the
        page's owner slot in the same step."""
        if isinstance(owner, tuple):
            # parity units live in the STL's parity store, not a B-tree
            if self.parity_patcher is not None:
                self.parity_patcher(owner[0], owner[1], new_ppa)
            return
        try:
            position = owner.pages.index(old_ppa)
        except ValueError:
            raise AssertionError(
                f"the unit at {old_ppa} of block {owner.coord} names an "
                f"empty slot") from None
        owner.rebind(position, new_ppa)
