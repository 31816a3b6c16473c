"""The STL's per-space B-tree index (§4.2, Fig. 6).

For an N-D space the STL keeps an N-level tree: the root level indexes
the highest-order dimension, each level below the next dimension, and
leaf entries point to the ordered list of physical access units (pages)
of one building block. The node degree at level *i* is
``ceil(d_i / bb_i)`` — the block-grid extent of that dimension.

The index also carries the per-block usage record the space
allocator's least-used-channel/bank rules need, and it counts
node visits so the systems layer can charge translation latency
(the §7.3 worst-case adders: 41 µs software / 17 µs hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.space import Space
from repro.nvm.geometry import Geometry

__all__ = ["BlockEntry", "BTreeNode", "BTreeIndex", "LookupResult"]


def _add_units(key_grid: List[List[int]], bank_tot: List[int],
               bank_width: List[int], m: int, plane_pages: int, ppa: int,
               step: int = 1) -> None:
    """Add ``step`` (1 or -1) units on page index ``ppa``'s plane (plane
    number ``ppa // plane_pages``) to a usage record ``(key_grid,
    bank_tot, bank_width)`` with key modulus ``m`` (see
    :class:`BlockEntry`)."""
    c, b = divmod(ppa // plane_pages, len(key_grid))
    for row in key_grid:
        row[c] += step
    row = key_grid[b]
    before = row[c]
    row[c] = after = before + step * m
    bank_width[b] += (after >= m) - (before >= m)
    bank_tot[b] += step


@dataclass
class BlockEntry:
    """Leaf payload: the physical pages of one building block.

    ``pages[i]`` holds the page index (an int, see
    :mod:`repro.nvm.address`) of the unit storing the block's i-th
    page-sized slice (row-major order inside the block, §4.2: "sorted
    according to the sequential order of the units in the building
    block"); ``last_alloc`` is the index most recently bound.

    ``usage`` is the block's one usage record, the counts the §4.2
    placement rules read: ``(key_grid, bank_tot, bank_width)``.
    ``key_grid[b][c]`` packs the units on (c, b) and on channel c into
    one int, ``units on (c, b) * M + units on c`` with ``M = len(pages)
    + 1``. A channel never holds M units, so one ``min`` over a bank's
    row gives the least-bank-use-then-least-channel-use order.
    ``bank_tot[b]`` counts the units in bank b, and ``bank_width[b]``
    the channels of bank b that hold one. :meth:`count_usage` counts the
    record from ``pages`` (None until then) and notes the array's pages
    per plane, which turn a page index into its plane;
    :meth:`record_alloc` and :meth:`release_counts` keep it current and
    need it, through the one update step :meth:`counter` binds to the
    record.
    """

    coord: Tuple[int, ...]
    pages: List[Optional[int]]
    last_alloc: Optional[int] = None
    #: when the space is compressed (§5.3.4): stored bytes including the
    #: codec header; None = uncompressed block
    stored_bytes: Optional[int] = None
    usage: Optional[Tuple[List[List[int]], List[int], List[int]]] = None
    #: pages per plane of the array, set by :meth:`count_usage`
    plane_pages: int = field(default=0, repr=False, compare=False)

    def count_usage(self, geometry: Geometry) -> None:
        """Count the usage record from ``pages`` on ``geometry``'s array.
        A unit whose slot an overwrite emptied while the record still
        counts it is not in ``pages``, so count only while no count is
        held."""
        self.plane_pages = geometry.pages_per_bank
        self._recount(geometry.channels, geometry.banks_per_channel)

    def _recount(self, channels: int, banks: int) -> None:
        self.usage = ([[0] * channels for _ in range(banks)], [0] * banks,
                      [0] * banks)
        count = self.counter()
        for ppa in self.pages:
            if ppa is not None:
                count(ppa)

    def counter(self) -> Callable[..., None]:
        """The usage-record update bound to this entry's record:
        ``count(ppa, step=1)`` adds ``step`` (1 or -1) units on page
        index ``ppa``'s plane, through ``_add_units``, the one key
        packing. Bind once per block access: the key modulus ``M``
        follows ``len(pages)``, and :meth:`count_usage` makes a new
        record."""
        return partial(_add_units, *self.usage, len(self.pages) + 1,
                       self.plane_pages)

    def extend_pages(self, size: int) -> None:
        """Grow ``pages`` to ``size`` slots. The key packing follows
        ``len(pages)``, so the record is counted again: call this only
        while no count is held."""
        self.pages.extend([None] * (size - len(self.pages)))
        if self.usage is not None:
            key_grid = self.usage[0]
            self._recount(len(key_grid[0]), len(key_grid))

    def record_alloc(self, ppa: int, position: int) -> None:
        """Bind ``ppa`` to ``pages[position]`` and count it, through the
        update step :meth:`counter` binds. ``NdsAllocator.allocate``
        binds one unit this way; the STL's ``write_block`` binds its
        fresh units itself, plain and compressed alike, with one step
        bound per block."""
        self.pages[position] = ppa
        self.last_alloc = ppa
        self.counter()(ppa)

    def record_release(self, position: int) -> Optional[int]:
        ppa = self.pages[position]
        if ppa is None:
            return None
        self.pages[position] = None
        self.release_counts(ppa)
        return ppa

    def release_counts(self, ppa: int) -> None:
        """Take ``ppa`` out of the usage record: the counter half of
        :meth:`record_release`, for a unit whose slot is already empty."""
        self.counter()(ppa, -1)

    def rebind(self, position: int, ppa: int) -> None:
        """Point ``pages[position]`` at ``ppa``, a unit on the same
        (channel, bank) as the one the usage record holds for it.

        A release + alloc pair on one plane subtracts and adds the same
        one in the record, so only the slot and ``last_alloc`` change. A
        GC move and the STL's same-plane overwrite both rebind this
        way."""
        self.pages[position] = ppa
        self.last_alloc = ppa

    def allocated_pages(self) -> List[int]:
        return [p for p in self.pages if p is not None]

    @property
    def is_empty(self) -> bool:
        return all(p is None for p in self.pages)


@dataclass
class BTreeNode:
    """One tree node; entries are keyed by the block-grid index of this
    node's dimension."""

    level: int
    children: Dict[int, "BTreeNode"] = field(default_factory=dict)
    leaves: Dict[int, BlockEntry] = field(default_factory=dict)


@dataclass
class LookupResult:
    entry: Optional[BlockEntry]
    nodes_visited: int
    nodes_created: int = 0


class BTreeIndex:
    """Coordinate → building-block index for one space."""

    #: modelled bytes per tree-node entry / page pointer, for the §7.3
    #: space-overhead accounting
    POINTER_BYTES = 8
    NODE_OVERHEAD_BYTES = 64

    def __init__(self, space: Space) -> None:
        self.space = space
        self.root = BTreeNode(level=0)
        self.node_count = 1
        self.entry_count = 0

    # ------------------------------------------------------------------
    def lookup(self, block_coord: Tuple[int, ...]) -> LookupResult:
        """Walk the tree without allocating; one visit per level."""
        self._check_coord(block_coord)
        node = self.root
        visited = 1
        for axis in range(self.space.rank - 1):
            child = node.children.get(block_coord[axis])
            if child is None:
                return LookupResult(entry=None, nodes_visited=visited)
            node = child
            visited += 1
        entry = node.leaves.get(block_coord[-1])
        return LookupResult(entry=entry, nodes_visited=visited)

    def ensure(self, block_coord: Tuple[int, ...]) -> LookupResult:
        """Walk the tree, allocating nodes/entries along the path (§4.2:
        "the STL will allocate all necessary tree nodes along the
        traversal path")."""
        self._check_coord(block_coord)
        node, created = self._leaf_node(block_coord)
        entry = node.leaves.get(block_coord[-1])
        if entry is None:
            entry = BlockEntry(
                coord=block_coord,
                pages=[None] * self.space.pages_per_block,
            )
            node.leaves[block_coord[-1]] = entry
            self.entry_count += 1
        return LookupResult(entry=entry, nodes_visited=self.space.rank,
                            nodes_created=created)

    def adopt(self, entry: BlockEntry) -> None:
        """Link an existing entry at its (empty) coordinate, allocating
        nodes as :meth:`ensure` does. A resize moves the live entries
        into the new index this way, so whatever holds one (the owner
        slots of its units' pages) still holds the index's own."""
        self._check_coord(entry.coord)
        node = self._leaf_node(entry.coord)[0]
        node.leaves[entry.coord[-1]] = entry
        self.entry_count += 1

    def _leaf_node(self, block_coord: Tuple[int, ...]
                   ) -> Tuple[BTreeNode, int]:
        """The last-level node on ``block_coord``'s path, allocating the
        missing ones; returns it and how many nodes were created."""
        node = self.root
        created = 0
        for axis in range(self.space.rank - 1):
            child = node.children.get(block_coord[axis])
            if child is None:
                child = BTreeNode(level=axis + 1)
                node.children[block_coord[axis]] = child
                self.node_count += 1
                created += 1
            node = child
        return node, created

    def remove(self, block_coord: Tuple[int, ...]) -> Optional[BlockEntry]:
        """Detach a leaf entry (used by delete_space)."""
        self._check_coord(block_coord)
        node = self.root
        for axis in range(self.space.rank - 1):
            child = node.children.get(block_coord[axis])
            if child is None:
                return None
            node = child
        entry = node.leaves.pop(block_coord[-1], None)
        if entry is not None:
            self.entry_count -= 1
        return entry

    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[BlockEntry]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            yield from node.leaves.values()

    def memory_bytes(self) -> int:
        """Modelled DRAM footprint of the index (§7.3: the whole STL
        lookup structure occupies ~0.1 % of storage in the worst case)."""
        total = self.node_count * self.NODE_OVERHEAD_BYTES
        stack = [self.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            total += (len(node.children) + len(node.leaves)) * self.POINTER_BYTES
            for entry in node.leaves.values():
                total += len(entry.pages) * self.POINTER_BYTES
        return total

    # ------------------------------------------------------------------
    def _check_coord(self, block_coord: Tuple[int, ...]) -> None:
        if len(block_coord) != self.space.rank:
            raise ValueError(
                f"block coordinate rank {len(block_coord)} != space rank "
                f"{self.space.rank}")
        for axis, (c, g) in enumerate(zip(block_coord, self.space.grid)):
            if not (0 <= c < g):
                raise ValueError(
                    f"block coordinate {c} out of grid extent {g} on axis {axis}")
