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
overwritten unit, preserving the block's parallelism.

Free-space bookkeeping reuses the per-(channel, bank) log-structured
:class:`~repro.ftl.mapping.PlaneAllocator`; NDS manages flash like an
FTL underneath, it just *places* differently.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Tuple

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
        come from, before consulting free space.

        ``allowed`` restricts every rule to a shard's planes (a channels
        x banks product, see :meth:`ShardSpec.planes`); with None (the
        default) the rules see the whole array and the RNG draw sequence
        is identical to the pre-sharding allocator.
        """
        g = self.geometry
        if entry.last_alloc is None:
            # Rule 1: brand-new block — random channel and bank.
            if allowed is None:
                return (self.rng.randrange(g.channels),
                        self.rng.randrange(g.banks_per_channel))
            planes = sorted(allowed)
            return planes[self.rng.randrange(len(planes))]
        channels = banks = None
        width = g.channels
        if allowed is not None:
            channels = sorted({c for (c, _b) in allowed})
            banks = sorted({b for (_c, b) in allowed})
            width = len(channels)
        bank = entry.last_alloc.bank
        # An entry's units never leave its shard, so a count of the
        # channels it uses in this bank says whether it covers them all.
        if len(entry.bank_channels.get(bank, ())) >= width:
            # Rule 3: block covers every channel of this bank already —
            # move to an unused or least-used bank.
            bank = self._least_used_bank(entry, banks)
        # Rule 2: least-used channel (within the chosen bank).
        return self._least_used_channel(entry, bank, channels), bank

    def _place_cols(self, entry: BlockEntry):
        """The entry's columnar placement counters, built on first use.

        ``key_grid[b]`` is one ``min``-able row per bank (combined
        bank-use/channel-use sort key, see :class:`BlockEntry`);
        ``bank_tot[b]`` is the bank's total unit count. BlockEntry keeps
        both incrementally current across record_alloc/record_release,
        so the dict walks below run once per block, not once per unit.
        """
        cols = entry.place_cols
        if cols is None:
            g = self.geometry
            m = len(entry.pages) + 1
            chan = [entry.channel_use.get(c, 0) for c in range(g.channels)]
            key_grid = []
            for b in range(g.banks_per_channel):
                per = entry.bank_channels.get(b)
                if per:
                    key_grid.append([per.get(c, 0) * m + chan[c]
                                     for c in range(g.channels)])
                else:
                    key_grid.append(list(chan))
            bank_tot = [0] * g.banks_per_channel
            for (_c, b), count in entry.bank_use.items():
                bank_tot[b] += count
            cols = (key_grid, bank_tot)
            entry.place_cols = cols
        return cols

    def _least_used_bank(self, entry: BlockEntry,
                         banks: Optional[List[int]] = None) -> int:
        """A random one of the least-used ``banks`` (default: all)."""
        usage = self._place_cols(entry)[1]
        if banks is None:
            banks = range(len(usage))
        least = min(usage[b] for b in banks)
        return self.rng.choice([b for b in banks if usage[b] == least])

    def _least_used_channel(self, entry: BlockEntry, bank: int,
                            channels: Optional[List[int]] = None) -> int:
        """The least-used of ``channels`` (default: all) in ``bank``.

        One C-level ``min`` over the bank's combined-key row: the key
        packs (bank use, overall channel use) into one int, and both
        ``index`` and ``min`` return the first minimum — the
        lexicographic order with the lowest channel id as tie-break, so
        blocks larger than one stripe still spread evenly.
        """
        row = self._place_cols(entry)[0][bank]
        if channels is None:
            return row.index(min(row))
        return min(channels, key=row.__getitem__)

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
