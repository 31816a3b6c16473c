"""NDS space allocator — the §4.2 access-unit selection rules.

The allocator hands out physical pages for building-block positions so
that every block spreads over as many channels (then banks) as
possible:

1. first unit of a block → random channel and bank;
2. existing block → the *least-used channel* of that block, in the same
   bank as the block's most recently allocated unit;
3. if the block already uses every channel of that bank → an unused or
   least-used bank;
4. if every (channel, bank) is used → one of the least-used banks, then
   rules 1–3 again.

Overwrites pick a fresh unit from the *same channel and bank* as the
overwritten unit, preserving the block's parallelism. The STL's
``write_block`` binds every unit at its plane's append point itself (an
overwrite on the old unit's plane, a fresh unit on the next plane of
the block's :meth:`NdsAllocator.placement_plan`, a compressed block's
units first on the planes of the units it replaces) and comes to
:meth:`NdsAllocator.allocate` (``prefer``) only when the plane is full
or its channel is dead, for the rule-4 fallback. The plan gives rules
1–3 in closed form: a block's units fill one bank at a time, in one
sorted order of the bank's channels, and the RNG draws only for the
block's first unit and at each turn to a new bank.

Free-space bookkeeping reuses the per-(channel, bank) log-structured
:class:`~repro.ftl.mapping.PlaneAllocator`; NDS manages flash like an
FTL underneath, it just *places* differently.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.core.btree import BlockEntry
from repro.core.errors import CapacityError
from repro.ftl.mapping import OutOfSpaceError, PlaneAllocator, make_planes
from repro.nvm.geometry import Geometry

__all__ = ["NdsAllocator"]

#: type alias: the (channel, bank) planes a shard may allocate from
Planes = FrozenSet[Tuple[int, int]]


class NdsAllocator:
    """Physical-unit allocation for building blocks."""

    def __init__(self, geometry: Geometry, seed: int = 0x5D5) -> None:
        self.geometry = geometry
        self.rng = random.Random(seed)
        #: every plane, indexed by plane number (``ppa // pages_per_bank``)
        self.planes_by_number: List[PlaneAllocator] = make_planes(geometry)
        self.planes: Dict[Tuple[int, int], PlaneAllocator] = {
            plane.key: plane for plane in self.planes_by_number}
        self._plane_pages = geometry.pages_per_bank
        #: the :class:`~repro.nvm.flash.FlashArray` (set by the owning
        #: STL): placement steers around the channels its fault injector
        #: reports dead; with none, every decision stays untouched
        self.flash = None

    def _channel_dead(self, channel: int) -> bool:
        faults = self.flash.faults if self.flash is not None else None
        return faults is not None and faults.channel_dead(channel)

    # ------------------------------------------------------------------
    # free-space queries
    # ------------------------------------------------------------------
    def free_fraction(self, channel: int, bank: int) -> float:
        return (self.planes[(channel, bank)].free_pages
                / self.geometry.pages_per_bank)

    def total_free_pages(self) -> int:
        return sum(p.free_page_count() for p in self.planes.values())

    # ------------------------------------------------------------------
    # §4.2 placement rules
    # ------------------------------------------------------------------
    def choose_target(self, entry: BlockEntry,
                      allowed: Optional[Planes] = None) -> Tuple[int, int]:
        """Pick the (channel, bank) the next unit of ``entry`` should
        come from, before consulting free space: the first plane of a
        fresh :meth:`placement_plan`.

        ``allowed`` restricts every rule to a shard's planes (a channels
        x banks product, see :meth:`ShardSpec.planes`); with None (the
        default) the rules see the whole array and the RNG draw sequence
        is identical to the pre-sharding allocator.
        """
        return next(self.placement_plan(entry, allowed))

    def placement_plan(self, entry: BlockEntry,
                       allowed: Optional[Planes] = None
                       ) -> Iterator[Tuple[int, int]]:
        """Rules 1–3 for ``entry``, bound once per block access: yields
        the (channel, bank) of each next fresh unit, in the order one
        rule call per unit would give, as long as the caller binds each
        yielded plane (counts it in the usage record and makes it
        ``last_alloc``) before it asks for the next.

        While the bank of ``last_alloc`` is not covered, rule 2 picks a
        channel with no unit on (c, bank), and binding a unit there
        changes no other key of the bank's row; so one sort of the row
        per bank stretch gives the stretch's order. The RNG is drawn
        only where the rules draw: rule 1 for a block with no
        ``last_alloc``, rule 3 each time the bank is covered. A caller
        drops the plan and binds a new one after anything else that
        moves the record or ``last_alloc``: an overwrite, a collection,
        an unbound (elided) unit, a rule-4 fallback or a re-drive.
        """
        rng = self.rng
        g = self.geometry
        if allowed is None:
            channels = range(g.channels)
            banks = range(g.banks_per_channel)
        else:
            channels = sorted({c for (c, _b) in allowed})
            banks = sorted({b for (_c, b) in allowed})
        width = len(channels)
        if entry.last_alloc is None:
            # Rule 1: brand-new block — random channel and bank.
            if allowed is None:
                yield (rng.randrange(g.channels),
                       rng.randrange(g.banks_per_channel))
            else:
                yield sorted(allowed)[rng.randrange(len(allowed))]
        key_grid, bank_tot, bank_width = entry.usage
        bank = entry.last_alloc // self._plane_pages % g.banks_per_channel
        while True:
            # An entry's units never leave its shard, so a count of the
            # channels it uses in this bank says whether it covers them
            # all.
            if bank_width[bank] >= width:
                # Rule 3: block covers every channel of this bank
                # already — move to a random one of the least-used banks.
                least = min(bank_tot[b] for b in banks)
                bank = rng.choice([b for b in banks if bank_tot[b] == least])
            # Rule 2: least-used channel (within the chosen bank). The
            # key packs (bank use, overall channel use) into one int
            # (see BlockEntry) and the sort is stable: the lexicographic
            # order with the lowest channel id as tie-break, so blocks
            # larger than one stripe still spread evenly. The bank's
            # unused channels (key < M) come first; a covered bank
            # (rule 4's zone) gives one unit, then rule 3 draws again.
            row = key_grid[bank]
            for channel in sorted(channels, key=row.__getitem__)[
                    :max(1, width - bank_width[bank])]:
                yield channel, bank

    # ------------------------------------------------------------------
    def allocate(self, entry: BlockEntry, position: int,
                 prefer: Optional[Tuple[int, int]] = None,
                 allowed: Optional[Planes] = None) -> int:
        """Allocate a physical unit for block position ``position``,
        owned by ``entry``; returns its page index.

        ``prefer`` pins (channel, bank) — used for overwrites, which must
        land in the same channel and bank as the replaced unit (§4.2).
        ``allowed`` confines every choice (including the rule-4
        fallback) to a shard's planes. Falls back over banks/channels
        (rule 4) before giving up.
        """
        if prefer is not None:
            target = prefer
        else:
            target = self.choose_target(entry, allowed=allowed)
        ppa = None
        if not self._channel_dead(target[0]):
            ppa = self._try_allocate(target, entry)
        if ppa is None:
            ppa = self._fallback_allocate(target, entry, allowed=allowed)
        if ppa is None:
            raise CapacityError("no free access unit in any channel/bank")
        if entry.usage is None:
            # the block's first counted unit: count its record first
            entry.count_usage(self.geometry)
        entry.record_alloc(ppa, position)
        return ppa

    def allocate_raw(self, owner: object,
                     prefer: Optional[Tuple[int, int]] = None,
                     allowed: Optional[Planes] = None) -> int:
        """Allocate a physical unit owned by ``owner``, outside any
        building block's bookkeeping — used for cross-channel parity
        units."""
        target = prefer
        if target is None or self._channel_dead(target[0]):
            live = [key for key in (self.planes if allowed is None
                                    else sorted(allowed))
                    if not self._channel_dead(key[0])]
            if not live:
                raise CapacityError("no live channel for a raw allocation")
            target = max(live, key=lambda key: self.planes[key].free_page_count())
        ppa = self._try_allocate(target, owner)
        if ppa is None:
            ppa = self._fallback_allocate(target, owner, allowed=allowed)
        if ppa is None:
            raise CapacityError("no free access unit in any channel/bank")
        return ppa

    def _try_allocate(self, target: Tuple[int, int],
                      owner: object) -> Optional[int]:
        try:
            return self.planes[target].allocate_page(owner)
        except OutOfSpaceError:
            return None

    def _fallback_allocate(self, target: Tuple[int, int], owner: object,
                           allowed: Optional[Planes] = None
                           ) -> Optional[int]:
        """Rule 4: scan least-used (most-free) planes first (within the
        shard, when one is given — the shard boundary is absolute)."""
        keys = self.planes.keys() if allowed is None else sorted(allowed)
        ordered = sorted(keys,
                         key=lambda key: -self.planes[key].free_page_count())
        for key in ordered:
            if key == target or self._channel_dead(key[0]):
                continue
            ppa = self._try_allocate(key, owner)
            if ppa is not None:
                return ppa
        return None

    def plane_of(self, ppa: int) -> PlaneAllocator:
        """The plane holding page index ``ppa``."""
        return self.planes_by_number[ppa // self._plane_pages]

    def invalidate(self, ppa: int) -> object:
        return self.plane_of(ppa).invalidate(ppa)
