"""The STL's per-space B-tree index (§4.2, Fig. 6).

For an N-D space the STL keeps an N-level tree: the root level indexes
the highest-order dimension, each level below the next dimension, and
leaf entries point to the ordered list of physical access units (pages)
of one building block. The node degree at level *i* is
``ceil(d_i / bb_i)`` — the block-grid extent of that dimension.

The index also carries the per-block allocation usage counters the
space allocator's least-used-channel/bank rules need, and it counts
node visits so the systems layer can charge translation latency
(the §7.3 worst-case adders: 41 µs software / 17 µs hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.space import Space
from repro.nvm.address import PhysicalPageAddress

__all__ = ["BlockEntry", "BTreeNode", "BTreeIndex", "LookupResult"]


@dataclass
class BlockEntry:
    """Leaf payload: the physical pages of one building block.

    ``pages[i]`` holds the unit storing the block's i-th page-sized
    slice (row-major order inside the block, §4.2: "sorted according to
    the sequential order of the units in the building block").
    """

    coord: Tuple[int, ...]
    pages: List[Optional[PhysicalPageAddress]]
    channel_use: Dict[int, int] = field(default_factory=dict)
    bank_use: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: ``bank_use`` re-indexed per bank (bank → channel → count) so the
    #: allocator's per-unit channel scan avoids tuple-key lookups
    bank_channels: Dict[int, Dict[int, int]] = field(default_factory=dict)
    last_alloc: Optional[PhysicalPageAddress] = None
    #: when the space is compressed (§5.3.4): stored bytes including the
    #: codec header; None = uncompressed block
    stored_bytes: Optional[int] = None
    #: columnar mirror of the usage dicts for the allocator's placement
    #: scans: ``(key_grid, bank_tot)`` where ``key_grid[b][c]`` is the
    #: combined sort key ``bank_use[(c, b)] * M + channel_use[c]`` with
    #: ``M = len(pages) + 1`` (channel_use never reaches M, so one
    #: ``min`` over the row reproduces the lexicographic
    #: least-bank-use-then-least-channel-use tie-break), and
    #: ``bank_tot[b]`` sums ``bank_use`` over the bank. Built lazily by
    #: the allocator; None until the first placement scan needs it.
    place_cols: Optional[Tuple[List[List[int]], List[int]]] = None

    def record_alloc(self, ppa: PhysicalPageAddress, position: int) -> None:
        self.pages[position] = ppa
        self.channel_use[ppa.channel] = self.channel_use.get(ppa.channel, 0) + 1
        key = (ppa.channel, ppa.bank)
        self.bank_use[key] = self.bank_use.get(key, 0) + 1
        per_bank = self.bank_channels.get(ppa.bank)
        if per_bank is None:
            per_bank = {}
            self.bank_channels[ppa.bank] = per_bank
        per_bank[ppa.channel] = per_bank.get(ppa.channel, 0) + 1
        self.last_alloc = ppa
        cols = self.place_cols
        if cols is not None:
            key_grid, bank_tot = cols
            c = ppa.channel
            for row in key_grid:
                row[c] += 1
            key_grid[ppa.bank][c] += len(self.pages) + 1
            bank_tot[ppa.bank] += 1

    def record_release(self, position: int) -> Optional[PhysicalPageAddress]:
        ppa = self.pages[position]
        if ppa is None:
            return None
        self.pages[position] = None
        self.release_counts(ppa)
        return ppa

    def release_counts(self, ppa: PhysicalPageAddress) -> None:
        """Take ``ppa`` out of the usage counters: the counter half of
        :meth:`record_release`, for a unit whose slot is already empty."""
        self.channel_use[ppa.channel] -= 1
        if self.channel_use[ppa.channel] == 0:
            del self.channel_use[ppa.channel]
        key = (ppa.channel, ppa.bank)
        self.bank_use[key] -= 1
        if self.bank_use[key] == 0:
            del self.bank_use[key]
        per_bank = self.bank_channels[ppa.bank]
        per_bank[ppa.channel] -= 1
        if per_bank[ppa.channel] == 0:
            del per_bank[ppa.channel]
            if not per_bank:
                del self.bank_channels[ppa.bank]
        cols = self.place_cols
        if cols is not None:
            key_grid, bank_tot = cols
            c = ppa.channel
            for row in key_grid:
                row[c] -= 1
            key_grid[ppa.bank][c] -= len(self.pages) + 1
            bank_tot[ppa.bank] -= 1

    def rebind(self, position: int, ppa: PhysicalPageAddress) -> None:
        """Point ``pages[position]`` at ``ppa``, a unit on the same
        (channel, bank) as the one the usage counters hold for it.

        A release + alloc pair on one plane subtracts and adds the same
        one in ``channel_use``, ``bank_use``, ``bank_channels`` and
        ``place_cols``, so only the slot and ``last_alloc`` change. A GC
        move and the STL's same-plane overwrite both rebind this way."""
        self.pages[position] = ppa
        self.last_alloc = ppa

    def allocated_pages(self) -> List[PhysicalPageAddress]:
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
        into the new index this way, so whatever holds one (the GC
        reverse table) still holds the index's own."""
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
