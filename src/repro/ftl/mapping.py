"""Page-mapped flash translation layer with channel-striped allocation.

This is the *conventional* SSD management layer the paper's baseline
uses (§2.1): logically consecutive pages are striped across channels so
that **sequential** LBA accesses enjoy full channel parallelism — which
is precisely why *non*-sequential, dimension-crossing accesses
underutilize the device ([P3]).

Allocation is log-structured per (channel, bank): each (channel, bank)
pair keeps an active block that fills page by page; overwrites
invalidate the old physical page and go to a fresh one in the same
(channel, bank) so the striping invariant survives updates. A physical
page is its plain int index (:func:`~repro.nvm.address.ppa_to_index`):
the map's values and the allocators' return values are such ints, and
a page's plane is ``planes_by_number[index // pages_per_bank]``.

Each erase block keeps one owner slot per page (``BlockState.owners``):
the LPN of an FTL page, or what the STL binds (see
:mod:`repro.core.gc`). A slot is None while its page is free or
invalid, so the slots are both the valid map and the reverse lookup GC
needs (§4.2); ``live`` counts the filled ones.

Free space is kept as state: each :class:`PlaneAllocator` holds an int
``free_pages`` that its own mutators (``allocate_page``,
``release_block``, ``withdraw_block``/``retire_block``) update, so a
free-fraction query is O(1). Code outside this module changes a plane's
free pool or active block only through those methods.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.nvm.flash import OutOfSpaceError
from repro.nvm.geometry import Geometry

__all__ = ["BlockState", "PlaneAllocator", "PageMapFTL", "OutOfSpaceError",
           "make_planes"]


@dataclass
class BlockState:
    """Book-keeping for one erase block."""

    block_id: int
    next_page: int = 0
    #: the owner of each page, None while it is free or invalid (an
    #: owner may be LPN 0: test a slot with ``is None``)
    owners: List[object] = field(default_factory=list)
    #: how many ``owners`` slots are filled, kept by the plane's
    #: mutators and the GC move (a recount would compare every owner)
    live: int = 0
    erase_count: int = 0
    #: monotone sequence number stamped when the block filled — the age
    #: proxy used by FIFO / cost-benefit victim selection
    filled_seq: int = -1
    #: grown bad: never allocated from or erased again
    retired: bool = False

    def live_pages(self) -> int:
        return self.live

    def utilization(self) -> float:
        return self.live / len(self.owners) if self.owners else 0.0


class _FreeBlockPool:
    """Free-block ids of one plane without materializing the id list.

    Order-equivalent to the original ``list(range(count))`` free list
    under the operations the FTL/GC/bad-block layers use: virgin ids
    leave from the front in ascending order, erased blocks re-enter at
    the tail (FIFO), ``remove`` may take any id.
    """

    __slots__ = ("_virgin_next", "_virgin_end", "_skipped", "_recycled")

    def __init__(self, count: int) -> None:
        self._virgin_next = 0
        self._virgin_end = count
        #: virgin ids removed (retired) before their first allocation
        self._skipped: set = set()
        self._recycled: deque = deque()

    def __len__(self) -> int:
        return (self._virgin_end - self._virgin_next - len(self._skipped)
                + len(self._recycled))

    def __bool__(self) -> bool:
        return len(self) > 0

    def __contains__(self, block_id: int) -> bool:
        if (self._virgin_next <= block_id < self._virgin_end
                and block_id not in self._skipped):
            return True
        return block_id in self._recycled

    def __iter__(self) -> Iterator[int]:
        for block_id in range(self._virgin_next, self._virgin_end):
            if block_id not in self._skipped:
                yield block_id
        yield from self._recycled

    def pop(self, index: int = 0) -> int:
        if index != 0:
            raise IndexError("free-block pool only pops from the front")
        while self._virgin_next < self._virgin_end:
            block_id = self._virgin_next
            self._virgin_next += 1
            if block_id in self._skipped:
                self._skipped.discard(block_id)
                continue
            return block_id
        if not self._recycled:
            raise IndexError("pop from empty free-block pool")
        return self._recycled.popleft()

    def append(self, block_id: int) -> None:
        self._recycled.append(block_id)

    def remove(self, block_id: int) -> None:
        if (self._virgin_next <= block_id < self._virgin_end
                and block_id not in self._skipped):
            self._skipped.add(block_id)
            return
        try:
            self._recycled.remove(block_id)
        except ValueError:
            raise ValueError(
                f"block {block_id} not in free-block pool") from None


class PlaneAllocator:
    """Free-space management for one (channel, bank) pair.

    Keeps a free-block pool and an active block; pages are handed out
    append-only. The GC layer returns blocks to the pool after erasing.

    ``free_pages`` is state, not a recount: free-pool blocks ×
    ``pages_per_block`` plus the active block's unwritten tail. Only
    :meth:`allocate_page`, :meth:`release_block` and
    :meth:`withdraw_block` change the pool or the active block, and each
    updates ``free_pages``; GC and bad-block code must go through them
    and never touch ``free_blocks`` or ``active_block`` directly.

    A collector that keeps a below-watermark index sets ``low_mark``
    (the smallest free-page count at or above its watermark) and
    ``low_set``; the three mutators then add or discard ``key`` in
    ``low_set`` whenever ``free_pages`` crosses ``low_mark``. With the
    default ``low_mark`` of 0 no crossing is possible.
    """

    def __init__(self, channel: int, bank: int, geometry: Geometry) -> None:
        self.channel = channel
        self.bank = bank
        self.key = (channel, bank)
        #: page index of this plane's block 0, page 0; every page index
        #: of the plane divided by ``pages_per_bank`` gives its plane
        #: number, ``channel * banks_per_channel + bank``
        self.base = ((channel * geometry.banks_per_channel + bank)
                     * geometry.pages_per_bank)
        self.geometry = geometry
        self._per_block = geometry.pages_per_block
        #: block states are materialized lazily: a 2 TB-class device has
        #: hundreds of thousands of blocks, most never touched in a run
        self.blocks: Dict[int, BlockState] = {}
        self.free_blocks = _FreeBlockPool(geometry.blocks_per_bank)
        self.active_block: Optional[int] = None
        #: BlockState of ``active_block`` (None exactly when it is None)
        self._active_state: Optional[BlockState] = None
        #: page index of the active block's page 0
        self._active_base = 0
        self._fill_counter = 0
        self.free_pages = geometry.pages_per_bank
        self.low_mark = 0
        self.low_set: Optional[Set[Tuple[int, int]]] = None

    def _state(self, block_id: int) -> BlockState:
        state = self.blocks.get(block_id)
        if state is None:
            state = BlockState(block_id,
                               owners=[None] * self.geometry.pages_per_block)
            self.blocks[block_id] = state
        return state

    # ------------------------------------------------------------------
    def free_page_count(self) -> int:
        return self.free_pages

    def allocate_page(self, owner: object) -> int:
        """Bind ``owner`` to the next append point; returns its page
        index (an int, which the interpreter's cyclic GC never tracks).
        Raises :class:`OutOfSpaceError` when full."""
        state = self._active_state
        if state is None:
            if not self.free_blocks:
                raise OutOfSpaceError(
                    f"(ch{self.channel}, bk{self.bank}) has no free blocks")
            self.active_block = self.free_blocks.pop(0)
            state = self._state(self.active_block)
            self._active_state = state
            self._active_base = self.base + self.active_block * self._per_block
        page = state.next_page
        ppa = self._active_base + page
        state.owners[page] = owner
        state.live += 1
        page += 1
        state.next_page = page
        if page == self._per_block:
            state.filled_seq = self._fill_counter
            self._fill_counter += 1
            self.active_block = None
            self._active_state = None
        self.free_pages -= 1
        if self.free_pages == self.low_mark - 1:
            self.low_set.add(self.key)
        return ppa

    def invalidate(self, ppa: int) -> object:
        """Empty the owner slot of page index ``ppa``, one of this
        plane's pages; returns the owner it held (None if none)."""
        offset = ppa - self.base
        state = self._state(offset // self._per_block)
        page = offset % self._per_block
        owner = state.owners[page]
        if owner is not None:
            state.owners[page] = None
            state.live -= 1
        return owner

    def victim_candidates(self, policy: str = "greedy") -> List[int]:
        """Fully-written blocks, best victim first.

        Policies: ``greedy`` (fewest live pages — reclaims the most per
        erase), ``fifo`` (oldest fill first — even wear, oblivious to
        utilization), ``cost-benefit`` (age × (1-u)/(1+u) — balances
        reclaimed space against the copy cost, favouring old cold
        blocks).
        """
        full = [
            b for b, state in self.blocks.items()
            if state.next_page == self.geometry.pages_per_block
            and b != self.active_block and not state.retired
        ]
        if policy == "greedy":
            return sorted(full, key=lambda b: self.blocks[b].live_pages())
        if policy == "fifo":
            return sorted(full, key=lambda b: self.blocks[b].filled_seq)
        if policy == "cost-benefit":
            def score(b: int) -> float:
                state = self.blocks[b]
                age = self._fill_counter - state.filled_seq
                u = state.utilization()
                return age * (1.0 - u) / (1.0 + u)
            return sorted(full, key=score, reverse=True)
        raise ValueError(f"unknown GC policy {policy!r}")

    def release_block(self, block_id: int) -> None:
        """Return an erased block to the free pool."""
        state = self._state(block_id)
        state.next_page = 0
        state.owners = [None] * self.geometry.pages_per_block
        state.live = 0
        state.erase_count += 1
        self.free_blocks.append(block_id)
        before = self.free_pages
        self.free_pages = before + self.geometry.pages_per_block
        if before < self.low_mark <= self.free_pages:
            self.low_set.discard(self.key)

    def withdraw_block(self, block_id: int) -> None:
        """Take ``block_id`` out of service: it stops being the active
        block (losing its unwritten tail) and leaves the free pool.

        A no-op for a block that is neither. Its pages and state are
        left alone, so a grown-bad block can still be relocated from.
        """
        lost = 0
        if self.active_block == block_id:
            lost = self.geometry.pages_per_block - self._active_state.next_page
            self.active_block = None
            self._active_state = None
        if block_id in self.free_blocks:
            self.free_blocks.remove(block_id)
            lost += self.geometry.pages_per_block
        if lost:
            before = self.free_pages
            self.free_pages = before - lost
            if self.free_pages < self.low_mark <= before:
                self.low_set.add(self.key)

    def retire_block(self, block_id: int) -> None:
        """Take a grown-bad block out of service permanently.

        The block is withdrawn (:meth:`withdraw_block`) and is never
        offered as a GC victim again. Callers must have relocated any
        live pages first.
        """
        self.withdraw_block(block_id)
        state = self._state(block_id)
        state.retired = True
        state.owners = [None] * self.geometry.pages_per_block
        state.live = 0
        state.next_page = self.geometry.pages_per_block

    def retired_count(self) -> int:
        return sum(1 for state in self.blocks.values() if state.retired)


def make_planes(geometry: Geometry) -> List[PlaneAllocator]:
    """One :class:`PlaneAllocator` per (channel, bank), in plane-number
    order."""
    return [PlaneAllocator(c, b, geometry)
            for c in range(geometry.channels)
            for b in range(geometry.banks_per_channel)]


class PageMapFTL:
    """LPN → PPA map with conventional channel striping.

    The *stripe target* of logical page ``n`` is::

        channel = n % channels
        bank    = (n // channels) % banks_per_channel

    so LBA-sequential streams fan out over every channel, then every
    bank — the layout file systems assume (§2.1). ``map`` holds each
    mapped LPN's page index.
    """

    def __init__(self, geometry: Geometry) -> None:
        self.geometry = geometry
        self.map: Dict[int, int] = {}
        #: every plane, indexed by plane number (``ppa // pages_per_bank``)
        self.planes_by_number: List[PlaneAllocator] = make_planes(geometry)
        self.planes: Dict[Tuple[int, int], PlaneAllocator] = {
            plane.key: plane for plane in self.planes_by_number}
        channels = geometry.channels
        #: the stripe target plane of every ``lpn % (channels * banks)``
        #: (:meth:`stripe_target` as a table)
        self.stripe_planes: List[PlaneAllocator] = [
            self.planes[(slot % channels, slot // channels)]
            for slot in range(channels * geometry.banks_per_channel)]

    # ------------------------------------------------------------------
    def stripe_target(self, lpn: int) -> Tuple[int, int]:
        channel = lpn % self.geometry.channels
        bank = (lpn // self.geometry.channels) % self.geometry.banks_per_channel
        return channel, bank

    def lookup(self, lpn: int) -> Optional[int]:
        return self.map.get(lpn)

    def allocate(self, lpn: int) -> Tuple[int, Optional[int]]:
        """Bind ``lpn`` to a fresh physical page.

        Returns ``(new_ppa, old_ppa)`` as page indices; ``old_ppa`` is
        the invalidated previous location for overwrites, else None.
        """
        channel, bank = self.stripe_target(lpn)
        plane = self.planes[(channel, bank)]
        old = self.map.get(lpn)
        ppa = plane.allocate_page(lpn)
        self.map[lpn] = ppa
        if old is not None:
            # after the bind: a full plane leaves the old page live
            self.plane_of(old).invalidate(old)
        return ppa, old

    def trim(self, lpn: int) -> Optional[int]:
        """Drop the mapping for ``lpn`` (discard)."""
        old = self.map.pop(lpn, None)
        if old is not None:
            self.plane_of(old).invalidate(old)
        return old

    def plane_of(self, ppa: int) -> PlaneAllocator:
        """The plane holding page index ``ppa``."""
        return self.planes_by_number[ppa // self.geometry.pages_per_bank]

    def mapped_pages(self) -> int:
        return len(self.map)
