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
overwrite on the old unit's plane, a fresh unit on the plane that
:meth:`NdsAllocator.placement_rule`, bound once per block, picks) and
comes to :meth:`NdsAllocator.allocate` (``prefer``) only when the plane
is full or its channel is dead, for the rule-4 fallback.

Free-space bookkeeping reuses the per-(channel, bank) log-structured
:class:`~repro.ftl.mapping.PlaneAllocator`; NDS manages flash like an
FTL underneath, it just *places* differently.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.core.btree import BlockEntry
from repro.core.errors import CapacityError
from repro.ftl.mapping import OutOfSpaceError, PlaneAllocator
from repro.nvm.geometry import Geometry

__all__ = ["NdsAllocator"]

#: type alias: the (channel, bank) planes a shard may allocate from
Planes = FrozenSet[Tuple[int, int]]


class NdsAllocator:
    """Physical-unit allocation for building blocks."""

    def __init__(self, geometry: Geometry, seed: int = 0x5D5) -> None:
        self.geometry = geometry
        self.rng = random.Random(seed)
        self.planes: Dict[Tuple[int, int], PlaneAllocator] = {
            (c, b): PlaneAllocator(c, b, geometry)
            for c in range(geometry.channels)
            for b in range(geometry.banks_per_channel)
        }
        #: optional :class:`~repro.faults.injector.FaultInjector` shared
        #: with the flash array — lets placement steer around dead
        #: channels; None leaves every decision untouched
        self.faults = None

    def _channel_dead(self, channel: int) -> bool:
        return self.faults is not None and self.faults.channel_dead(channel)

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
        come from, before consulting free space: one call of the rule
        :meth:`placement_rule` binds.

        ``allowed`` restricts every rule to a shard's planes (a channels
        x banks product, see :meth:`ShardSpec.planes`); with None (the
        default) the rules see the whole array and the RNG draw sequence
        is identical to the pre-sharding allocator.
        """
        return self.placement_rule(entry, allowed)()

    def placement_rule(self, entry: BlockEntry,
                       allowed: Optional[Planes] = None
                       ) -> Callable[[], Tuple[int, int]]:
        """Rules 1–3 for ``entry``, bound once per block: a callable that
        returns the (channel, bank) of the block's next unit from its
        ``last_alloc`` and usage record at the time of the call.

        The RNG, the geometry and, for a sharded space (``allowed``),
        the shard's sorted planes, channels and banks are bound here, so
        a block's units pay for them once. The STL's ``write_block``
        binds one rule per block access; :meth:`choose_target` binds one
        per call.
        """
        rng = self.rng
        randrange = rng.randrange
        g = self.geometry
        planes = channels = banks = None
        width = g.channels
        if allowed is not None:
            planes = sorted(allowed)
            channels = sorted({c for (c, _b) in allowed})
            banks = sorted({b for (_c, b) in allowed})
            width = len(channels)

        def rule() -> Tuple[int, int]:
            last = entry.last_alloc
            if last is None:
                # Rule 1: brand-new block — random channel and bank.
                if planes is None:
                    return (randrange(g.channels),
                            randrange(g.banks_per_channel))
                return planes[randrange(len(planes))]
            key_grid, bank_tot, bank_width = entry.usage
            bank = last.bank
            # An entry's units never leave its shard, so a count of the
            # channels it uses in this bank says whether it covers them
            # all.
            if bank_width[bank] >= width:
                # Rule 3: block covers every channel of this bank
                # already — move to a random one of the least-used banks.
                scan = range(len(bank_tot)) if banks is None else banks
                least = min(bank_tot[b] for b in scan)
                bank = rng.choice([b for b in scan if bank_tot[b] == least])
            # Rule 2: least-used channel (within the chosen bank). One
            # C-level ``min`` over the bank's key row (see BlockEntry):
            # the key packs (bank use, overall channel use) into one
            # int, and both ``index`` and ``min`` return the first
            # minimum — the lexicographic order with the lowest channel
            # id as tie-break, so blocks larger than one stripe still
            # spread evenly.
            row = key_grid[bank]
            if channels is None:
                return row.index(min(row)), bank
            return min(channels, key=row.__getitem__), bank

        return rule

    # ------------------------------------------------------------------
    def allocate(self, entry: BlockEntry, position: int,
                 prefer: Optional[Tuple[int, int]] = None,
                 allowed: Optional[Planes] = None):
        """Allocate a physical unit for block position ``position``.

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
            ppa = self._try_allocate(target)
        if ppa is None:
            ppa = self._fallback_allocate(target, allowed=allowed)
        if ppa is None:
            raise CapacityError("no free access unit in any channel/bank")
        if entry.usage is None:
            # the block's first counted unit: count its record first
            entry.count_usage(self.geometry.channels,
                              self.geometry.banks_per_channel)
        entry.record_alloc(ppa, position)
        return ppa

    def allocate_raw(self, prefer: Optional[Tuple[int, int]] = None,
                     allowed: Optional[Planes] = None):
        """Allocate a physical unit outside any building block's
        bookkeeping — used for cross-channel parity units."""
        target = prefer
        if target is None or self._channel_dead(target[0]):
            live = [key for key in (self.planes if allowed is None
                                    else sorted(allowed))
                    if not self._channel_dead(key[0])]
            if not live:
                raise CapacityError("no live channel for a raw allocation")
            target = max(live, key=lambda key: self.planes[key].free_page_count())
        ppa = self._try_allocate(target)
        if ppa is None:
            ppa = self._fallback_allocate(target, allowed=allowed)
        if ppa is None:
            raise CapacityError("no free access unit in any channel/bank")
        return ppa

    def _try_allocate(self, target: Tuple[int, int]):
        try:
            return self.planes[target].allocate_page()
        except OutOfSpaceError:
            return None

    def _fallback_allocate(self, target: Tuple[int, int],
                           allowed: Optional[Planes] = None):
        """Rule 4: scan least-used (most-free) planes first (within the
        shard, when one is given — the shard boundary is absolute)."""
        keys = self.planes.keys() if allowed is None else sorted(allowed)
        ordered = sorted(keys,
                         key=lambda key: -self.planes[key].free_page_count())
        for key in ordered:
            if key == target or self._channel_dead(key[0]):
                continue
            ppa = self._try_allocate(key)
            if ppa is not None:
                return ppa
        return None

    def invalidate(self, ppa) -> None:
        self.planes[(ppa.channel, ppa.bank)].invalidate(ppa)
