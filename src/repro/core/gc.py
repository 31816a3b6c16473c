"""NDS garbage collection (§4.2).

"Garbage collection in NDS is similar to that of a conventional NVM
storage device, except that NDS can maintain a reverse lookup table
that records the building blocks associated with the erasing unit."
The reverse table maps each physical unit to ``(space, block
coordinate, position inside the block)`` — modelled as the 8 bytes of
out-of-band metadata per unit the paper describes — so relocations can
patch the B-tree leaf in place. Each entry also holds the live leaf
(:class:`~repro.core.btree.BlockEntry`) it names, so a relocation
patches it without a tree walk; the STL keeps every entry object alive
for as long as its units are bound (``resize_space`` moves the entries
themselves into the new index). Relocation stays within the same
(channel, bank) to preserve block parallelism. The victim loop and the
per-page move are shared with the FTL collector
(:class:`~repro.ftl.gc.RelocatingCollector`); this module supplies the
leaf patch and background collection.

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
from repro.core.btree import BlockEntry
from repro.faults.parity import PARITY_POSITION
from repro.ftl.gc import RelocatingCollector, _low_mark
from repro.nvm.flash import FlashArray
from repro.sim.stats import StatSet

__all__ = ["NdsGarbageCollector", "NdsGcResult", "ReverseEntry"]

#: modelled out-of-band bytes consumed per unit by the reverse table
OOB_BYTES_PER_UNIT = 8


@dataclass(slots=True)
class ReverseEntry:
    """The owner of one bound unit: ``(space, block coordinate,
    position)``, the modelled out-of-band record.

    A slotted, unfrozen dataclass: one is built per fresh unit, and a
    frozen one (``object.__setattr__`` per field, plus an instance
    dict) took about four times as long to build and more than twice
    the bytes. No code mutates or hashes one: a GC move and the STL's
    overwrite rebind keep the same object."""

    space_id: int
    block_coord: Tuple[int, ...]
    position: int
    #: the leaf that owns the unit (None for a parity unit); not part of
    #: the modelled OOB record, so left out of equality and repr
    entry: Optional[BlockEntry] = field(default=None, compare=False,
                                        repr=False)


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
        #: relocation callback for parity units (position
        #: :data:`~repro.faults.parity.PARITY_POSITION` in the reverse
        #: table): called as ``parity_patcher(space_id, coord, new_ppa)``
        #: with the destination's page index
        self.parity_patcher: Optional[Callable] = None

    # ------------------------------------------------------------------
    def note_alloc(self, ppa: int, space_id: int,
                   block_coord: Tuple[int, ...], position: int,
                   entry: Optional[BlockEntry] = None) -> None:
        """Record the owner of a freshly bound unit at page index
        ``ppa``: ``entry``'s slot ``position``, or with ``entry`` None a
        parity unit."""
        self.reverse[ppa] = ReverseEntry(space_id, block_coord, position,
                                         entry)

    def reverse_table_bytes(self) -> int:
        """Modelled OOB footprint of the reverse table."""
        return len(self.reverse) * OOB_BYTES_PER_UNIT

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

    def _moved(self, ref: ReverseEntry, new_ppa: int) -> None:
        """Patch the B-tree leaf (or the parity store) that owns a
        relocated unit.

        A relocation never leaves its (channel, bank), so the leaf the
        reverse entry holds is rebound (:meth:`BlockEntry.rebind`)
        without touching its usage record. The slot is never empty:
        every path that empties a slot drops its reverse-table entry in
        the same step."""
        if ref.position == PARITY_POSITION:
            # parity units live in the STL's parity store, not a B-tree
            if self.parity_patcher is not None:
                self.parity_patcher(ref.space_id, ref.block_coord, new_ppa)
            return
        entry = ref.entry
        assert entry.pages[ref.position] is not None, \
            f"reverse entry {ref} names an empty slot"
        entry.rebind(ref.position, new_ppa)
