"""The Space Translation Layer (§4).

The STL is the core of NDS. It owns the spaces, the per-space B-tree
indexes, the allocator and the garbage collector, and it executes
multi-dimensional reads/writes against the flash array:

* planning — translate a request to building-block accesses (Eq. 5);
* allocation — §4.2 placement rules, GC when a plane runs low;
* execution — timed page reads/programs on the flash array;
* assembly — byte-accurate scatter/gather between request buffers and
  building blocks (the data the paper moves through "STL memory
  space", §4.4).

Data buffers are numpy ``uint8`` arrays of shape ``(*extents,
element_size)`` — element-granular with an explicit byte axis, so the
STL stays agnostic of application dtypes (the API layer converts).

Timing attribution: the STL charges *flash* time to the flash array's
timelines and reports structural counts (blocks, pages, B-tree node
visits, units allocated). Where the translation/assembly *CPU* cost is
paid — host cores for the software NDS, the controller pipeline for
hardware NDS — is the systems layer's decision (paper Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocator import NdsAllocator
from repro.core.btree import BlockEntry, BTreeIndex
from repro.core.errors import SpaceNotFoundError
from repro.core.gc import NdsGarbageCollector
from repro.core.sharding import ShardSpec
from repro.core.space import Space
from repro.core.translator import (BlockAccess, pages_for_region, translate,
                                   translate_region)
from repro.faults.errors import (DegradedReadError, ProgramFailError,
                                 UncorrectableError)
from repro.faults.parity import PARITY_POSITION, ParityStore, xor_fold
from repro.nvm.flash import EccError, FlashArray
from repro.sim.stats import StatSet

__all__ = ["SpaceTranslationLayer", "StlOpResult", "BlockOpResult"]


@dataclass
class BlockOpResult:
    """Timing/structure outcome of one building-block access."""

    access: BlockAccess
    issue_time: float
    completion_time: float
    pages: int
    nodes_visited: int
    units_allocated: int = 0
    rmw_reads: int = 0
    gc_time: float = 0.0


@dataclass
class StlOpResult:
    """Aggregate outcome of one STL read/write request."""

    start_time: float
    end_time: float
    blocks: List[BlockOpResult] = field(default_factory=list)
    data: Optional[np.ndarray] = None
    stats: StatSet = field(default_factory=StatSet)

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time

    @property
    def pages_touched(self) -> int:
        return sum(b.pages for b in self.blocks)

    @property
    def nodes_visited(self) -> int:
        return sum(b.nodes_visited for b in self.blocks)


class SpaceTranslationLayer:
    """Create spaces, translate coordinates, move data (§4)."""

    def __init__(self, flash: FlashArray, gc_threshold: float = 0.10,
                 seed: int = 0x5D5, compressor=None,
                 elide_zero_pages: bool = False,
                 gc_policy: str = "greedy",
                 parity: bool = False) -> None:
        self.flash = flash
        self.geometry = flash.geometry
        #: optional §5.3.4 building-block-granular compressor
        #: (:class:`repro.core.compression.BlockCompressor`); compressed
        #: blocks occupy fewer access units
        self.compressor = compressor
        #: §8's sparse optimization ("similar to page-zero optimization
        #: in VAX/VMS"): all-zero pages are never programmed — the leaf
        #: slot stays empty and reads synthesize zeros
        self.elide_zero_pages = elide_zero_pages
        if compressor is not None and not flash.store_data:
            raise ValueError(
                "block compression needs functional mode (store_data=True)")
        if elide_zero_pages and not flash.store_data:
            raise ValueError(
                "zero-page elision needs functional mode (store_data=True)")
        if parity and compressor is not None:
            raise ValueError(
                "parity groups and block compression are mutually exclusive")
        if parity and not flash.store_data:
            raise ValueError(
                "parity groups need functional mode (store_data=True)")
        self.allocator = NdsAllocator(flash.geometry, seed=seed)
        self.gc = NdsGarbageCollector(self.allocator, flash,
                                      self._resolve_entry,
                                      threshold=gc_threshold,
                                      policy=gc_policy)
        #: cross-channel XOR parity: one extra unit per building block,
        #: reconstructed reads on uncorrectable errors (None = off)
        self.parity: Optional[ParityStore] = ParityStore() if parity else None
        if parity:
            self.gc.parity_patcher = self._patch_parity
        self.spaces: Dict[int, Space] = {}
        self.indexes: Dict[int, BTreeIndex] = {}
        #: per-space shard (hard QoS isolation): space_id -> ShardSpec;
        #: allocation, GC relocation and parity never leave the shard
        self.shards: Dict[int, ShardSpec] = {}
        self._shard_planes: Dict[int, frozenset] = {}
        self._next_space_id = 1
        self.stats = StatSet()
        #: page-sized byte count of one block page slot
        self._page_size = flash.geometry.page_size

    # ------------------------------------------------------------------
    # space management (§5.1 space creation/management)
    # ------------------------------------------------------------------
    def create_space(self, dims: Sequence[int], element_size: int,
                     bb_override: Optional[Sequence[int]] = None,
                     use_3d_blocks: bool = False,
                     shard: Optional[ShardSpec] = None) -> Space:
        space = Space.create(self._next_space_id, dims, element_size,
                             self.geometry, bb_override=bb_override,
                             use_3d_blocks=use_3d_blocks)
        self._next_space_id += 1
        self.spaces[space.space_id] = space
        self.indexes[space.space_id] = BTreeIndex(space)
        shard = ShardSpec.normalize(shard)
        if shard is not None:
            planes = shard.planes(self.geometry)
            capacity = len(planes) * self.geometry.pages_per_bank \
                * self._page_size
            if space.total_bytes > capacity:
                raise ValueError(
                    f"space needs {space.total_bytes} B but the shard's "
                    f"footprint of {shard.footprint(self.geometry)} "
                    f"({len(planes)} planes) only provides {capacity} B; "
                    f"widen the shard or shrink the space")
            self.shards[space.space_id] = shard
            self._shard_planes[space.space_id] = planes
            self.stats.count("spaces_sharded")
        self.stats.count("spaces_created")
        return space

    def shard_of(self, space_id: int) -> Optional[ShardSpec]:
        """The shard a space is pinned to (None = whole array)."""
        return self.shards.get(space_id)

    def get_space(self, space_id: int) -> Space:
        space = self.spaces.get(space_id)
        if space is None or space.deleted:
            raise SpaceNotFoundError(space_id)
        return space

    def delete_space(self, space_id: int) -> int:
        """Invalidate all building blocks and drop the index
        (the ``delete_space`` command of §5.3.1). Returns the number of
        units released."""
        space = self.get_space(space_id)
        index = self.indexes[space_id]
        released = sum(self._release_block(space_id, entry)
                       for entry in list(index.iter_entries()))
        space.deleted = True
        del self.indexes[space_id]
        self.shards.pop(space_id, None)
        self._shard_planes.pop(space_id, None)
        self.stats.count("spaces_deleted")
        return released

    def resize_space(self, space_id: int,
                     new_dims: Sequence[int]) -> Space:
        """Expand or shrink an existing space along its axes (§5.1:
        passing an existing identifier "triggers the STL to expand,
        shrink, or restructure the existing space").

        Growth keeps every building block in place — the grid simply
        extends. Shrinking releases the blocks that fall entirely
        outside the new bounds; blocks straddling the boundary are kept
        (their out-of-range elements become inaccessible slack). The
        rank and the element size are immutable; use views for
        rank-changing access.
        """
        space = self.get_space(space_id)
        new_dims = tuple(int(d) for d in new_dims)
        if len(new_dims) != space.rank:
            raise ValueError(
                f"resize cannot change rank ({space.rank} -> "
                f"{len(new_dims)}); open a view instead")
        old_index = self.indexes[space_id]
        resized = Space(space_id=space_id, dims=new_dims,
                        element_size=space.element_size, bb=space.bb,
                        pages_per_block=space.pages_per_block,
                        open_views=space.open_views)
        new_index = BTreeIndex(resized)
        released = 0
        for entry in old_index.iter_entries():
            inside = all(coord < grid for coord, grid
                         in zip(entry.coord, resized.grid))
            if inside:
                replacement = new_index.ensure(entry.coord).entry
                replacement.pages = entry.pages
                replacement.channel_use = entry.channel_use
                replacement.bank_use = entry.bank_use
                replacement.bank_channels = entry.bank_channels
                replacement.last_alloc = entry.last_alloc
                replacement.stored_bytes = entry.stored_bytes
                continue
            released += self._release_block(space_id, entry)
        self.spaces[space_id] = resized
        self.indexes[space_id] = new_index
        self.stats.count("spaces_resized")
        self.stats.count("resize_units_released", released)
        return resized

    def lookup_structure_bytes(self) -> int:
        """DRAM footprint of all STL lookup structures (§7.3)."""
        return sum(index.memory_bytes() for index in self.indexes.values())

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, space_id: int, coordinate: Sequence[int],
             sub_dim: Sequence[int]) -> List[BlockAccess]:
        return translate(self.get_space(space_id), coordinate, sub_dim)

    def plan_region(self, space_id: int, origin: Sequence[int],
                    extents: Sequence[int]) -> List[BlockAccess]:
        return translate_region(self.get_space(space_id), origin, extents)

    def block_region_data(self, space_id: int,
                          access: BlockAccess) -> np.ndarray:
        """Region bytes of one block access as a fresh
        ``(*extent, element_size)`` uint8 array (zeros where unwritten).
        Pure data plane — charges no model time; the host cache tier
        uses it to materialize functional payloads for regions that
        were fetched timing-only into a user buffer."""
        space = self.get_space(space_id)
        entry = self.indexes[space_id].lookup(access.block_coord).entry
        if entry is None:
            return np.zeros(access.extent() + (space.element_size,),
                            dtype=np.uint8)
        return self._block_region(space, self._block_buffer(space, entry),
                                  access).copy()

    # ------------------------------------------------------------------
    # block-granular execution (systems drive pacing through these)
    # ------------------------------------------------------------------
    def read_block(self, space_id: int, access: BlockAccess,
                   issue_time: float,
                   out: Optional[np.ndarray] = None) -> BlockOpResult:
        """Read one block access; scatter into ``out`` (request-shaped
        ``(*extents, element_size)`` uint8 array) when given."""
        space = self.get_space(space_id)
        self._sync_faults()
        index = self.indexes[space_id]
        lookup = index.lookup(access.block_coord)
        positions = pages_for_region(space, access.block_slice)
        completion = issue_time
        pages_read = 0
        entry = lookup.entry
        if entry is not None and entry.stored_bytes is None \
                and self.flash.faults is not None:
            # pages read one by one so a single uncorrectable unit can be
            # reconstructed without losing the batch (timing is
            # identical: all pages are issued at ``issue_time``)
            for position in positions:
                ppa = entry.pages[position]
                if ppa is None:
                    continue
                try:
                    end = self.flash.read_pages([ppa], issue_time).end_time
                except UncorrectableError as err:
                    end = self._degraded_read(space_id, space,
                                              access.block_coord, entry,
                                              position, err)
                completion = max(completion, end)
                pages_read += 1
        elif entry is not None:
            # compressed blocks are stored whole: any read touches every
            # (fewer) stored unit (§5.3.4)
            ppas = (entry.allocated_pages() if entry.stored_bytes is not None
                    else [entry.pages[p] for p in positions
                          if entry.pages[p] is not None])
            if ppas:
                completion = self.flash.read_pages(ppas, issue_time).end_time
                pages_read = len(ppas)
        if out is not None:
            self._scatter_block(space, access, entry, out)
        self.stats.count("stl_pages_read", pages_read)
        return BlockOpResult(access=access, issue_time=issue_time,
                             completion_time=completion, pages=pages_read,
                             nodes_visited=lookup.nodes_visited)

    def write_block(self, space_id: int, access: BlockAccess,
                    issue_time: float,
                    region: Optional[np.ndarray] = None) -> BlockOpResult:
        """Write one block access; ``region`` is the block-region-shaped
        ``(*extent, element_size)`` uint8 payload (None = timing only)."""
        space = self.get_space(space_id)
        self._sync_faults()
        index = self.indexes[space_id]
        lookup = index.ensure(access.block_coord)
        entry = lookup.entry
        if self.compressor is not None and region is not None:
            return self._write_block_compressed(space_id, space, lookup,
                                                access, issue_time, region)
        positions = pages_for_region(space, access.block_slice)
        page_bytes = self._page_size

        # Merge phase: materialize current block content for the touched
        # pages if the write covers them only partially (read-modify-write
        # on overwrite, new-unit programming per NAND rules).
        new_content: Optional[np.ndarray] = None
        rmw_reads = 0
        rmw_done = issue_time
        covers_block = all(
            lo == 0 and hi == extent
            for (lo, hi), extent in zip(access.block_slice, space.bb))
        if self.flash.store_data and region is not None:
            new_content = self._block_buffer(space, entry)
            self._block_region(space, new_content, access)[...] = region
        if new_content is not None or not self.flash.store_data:
            existing = [entry.pages[p] for p in positions
                        if entry.pages[p] is not None]
            if existing and not covers_block:
                op = self.flash.read_pages(existing, issue_time)
                rmw_done = op.end_time
                rmw_reads = len(existing)

        # Allocate + program each touched page. With no injector
        # attached, consecutive programs between GC events batch into
        # one flash call: every page still issues at ``rmw_done`` in
        # position order, so the timings are bit-identical. With one,
        # each page is programmed alone so that a ProgramFailError can
        # re-place its unit.
        completion = rmw_done
        units = 0
        gc_time = 0.0
        batching = self.flash.faults is None
        pending_ppas: List = []
        pending_data: Optional[List[np.ndarray]] = \
            [] if new_content is not None else None
        coord = access.block_coord
        shard = self._shard_planes.get(space_id)
        for position in positions:
            old = entry.pages[position]
            if old is not None:
                prefer = (old.channel, old.bank)
                self._release(entry, position)
            else:
                prefer = self.allocator.choose_target(entry, allowed=shard)
            if self.gc.needs_collection(*prefer):
                if pending_ppas:
                    op = self.flash.program_pages(pending_ppas, rmw_done,
                                                  data=pending_data)
                    for done in op.completions:
                        if done > completion:
                            completion = done
                    pending_ppas = []
                    pending_data = [] if new_content is not None else None
                gc_result = self.gc.collect(prefer[0], prefer[1], completion)
                gc_time += max(0.0, gc_result.end_time - completion)
                completion = max(completion, gc_result.end_time)
            payload = None
            if new_content is not None:
                start = position * page_bytes
                payload = [new_content[start:start + page_bytes]]
            if (self.elide_zero_pages and payload is not None
                    and old is None and not payload[0].any()):
                # sparse optimization (§8): never materialize an
                # all-zero page; the empty leaf slot reads back as zeros
                self.stats.count("stl_pages_elided")
                continue
            ppa = self._place(space_id, entry, coord, position, prefer)
            if batching:
                pending_ppas.append(ppa)
                if pending_data is not None:
                    pending_data.append(payload[0])
                units += 1
                continue
            op = self._program(space_id, entry, coord, position, ppa,
                               rmw_done, payload)
            completion = max(completion, op.end_time)
            units += 1
        if pending_ppas:
            op = self.flash.program_pages(pending_ppas, rmw_done,
                                          data=pending_data)
            for done in op.completions:
                if done > completion:
                    completion = done
        if self.parity is not None:
            parity_end = self._update_parity(space_id, space,
                                             access.block_coord, entry,
                                             new_content, rmw_done)
            completion = max(completion, parity_end)
        self.stats.count("stl_pages_programmed", units)
        return BlockOpResult(access=access, issue_time=issue_time,
                             completion_time=completion, pages=units,
                             nodes_visited=lookup.nodes_visited,
                             units_allocated=units, rmw_reads=rmw_reads,
                             gc_time=gc_time)

    # ------------------------------------------------------------------
    # request-granular convenience (§4.4 read/write + assembly)
    # ------------------------------------------------------------------
    def read(self, space_id: int, coordinate: Sequence[int],
             sub_dim: Sequence[int], start_time: float = 0.0,
             with_data: bool = True) -> StlOpResult:
        accesses = self.plan(space_id, coordinate, sub_dim)
        return self._read_accesses(space_id, tuple(sub_dim), accesses,
                                   start_time, with_data)

    def read_region(self, space_id: int, origin: Sequence[int],
                    extents: Sequence[int], start_time: float = 0.0,
                    with_data: bool = True) -> StlOpResult:
        accesses = self.plan_region(space_id, origin, extents)
        return self._read_accesses(space_id, tuple(extents), accesses,
                                   start_time, with_data)

    def write(self, space_id: int, coordinate: Sequence[int],
              sub_dim: Sequence[int], data: Optional[np.ndarray] = None,
              start_time: float = 0.0) -> StlOpResult:
        accesses = self.plan(space_id, coordinate, sub_dim)
        return self._write_accesses(space_id, tuple(sub_dim), accesses,
                                    data, start_time)

    def write_region(self, space_id: int, origin: Sequence[int],
                     extents: Sequence[int],
                     data: Optional[np.ndarray] = None,
                     start_time: float = 0.0) -> StlOpResult:
        accesses = self.plan_region(space_id, origin, extents)
        return self._write_accesses(space_id, tuple(extents), accesses,
                                    data, start_time)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _read_accesses(self, space_id: int, extents: Tuple[int, ...],
                       accesses: List[BlockAccess], start_time: float,
                       with_data: bool) -> StlOpResult:
        space = self.get_space(space_id)
        out = None
        if with_data and self.flash.store_data:
            out = np.zeros(extents + (space.element_size,), dtype=np.uint8)
        result = StlOpResult(start_time=start_time, end_time=start_time,
                             data=out)
        for access in accesses:
            block = self.read_block(space_id, access, start_time, out=out)
            result.blocks.append(block)
            if block.completion_time > result.end_time:
                result.end_time = block.completion_time
        result.stats.count("stl_reads")
        return result

    def _write_accesses(self, space_id: int, extents: Tuple[int, ...],
                        accesses: List[BlockAccess],
                        data: Optional[np.ndarray],
                        start_time: float) -> StlOpResult:
        space = self.get_space(space_id)
        if data is not None:
            expected = extents + (space.element_size,)
            if tuple(data.shape) != expected:
                raise ValueError(
                    f"data shape {data.shape} != expected {expected}")
        result = StlOpResult(start_time=start_time, end_time=start_time)
        for access in accesses:
            region = None
            if data is not None and self.flash.store_data:
                slicer = tuple(slice(lo, hi) for lo, hi in access.out_slice)
                region = data[slicer]
            block = self.write_block(space_id, access, start_time,
                                     region=region)
            result.blocks.append(block)
            if block.completion_time > result.end_time:
                result.end_time = block.completion_time
        result.stats.count("stl_writes")
        return result

    def _write_block_compressed(self, space_id: int, space: Space, lookup,
                                access: BlockAccess, issue_time: float,
                                region: np.ndarray) -> BlockOpResult:
        """§5.3.4 path: merge, compress the whole block, store it in
        (fewer) fresh units."""
        entry = lookup.entry
        page_bytes = self._page_size

        # Merge: materialize current content (decompressing if present),
        # reading the stored units when the write is partial.
        old_ppas = entry.allocated_pages()
        covers_block = all(
            lo == 0 and hi == extent
            for (lo, hi), extent in zip(access.block_slice, space.bb))
        rmw_reads = 0
        rmw_done = issue_time
        if old_ppas and not covers_block:
            op = self.flash.read_pages(old_ppas, issue_time)
            rmw_done = op.end_time
            rmw_reads = len(old_ppas)
        content = self._block_buffer(space, entry)
        self._block_region(space, content, access)[...] = region

        stored = self.compressor.compress_block(content[:space.block_bytes])
        needed = max(1, -(-stored.size // page_bytes))
        if needed > len(entry.pages):
            # the codec header can push an incompressible block one page
            # past its raw footprint
            entry.pages.extend([None] * (needed - len(entry.pages)))
            # the placement grid's key packing depends on len(pages):
            # rebuild it from the usage dicts on next use
            entry.place_cols = None

        # Release every old unit, then place the compressed payload.
        old_planes = []
        for position in range(len(entry.pages)):
            ppa = self._release(entry, position)
            if ppa is not None:
                old_planes.append((ppa.channel, ppa.bank))
        coord = access.block_coord
        shard = self._shard_planes.get(space_id)
        completion = rmw_done
        gc_time = 0.0
        units = 0
        for position in range(needed):
            if position < len(old_planes):
                prefer = old_planes[position]
            else:
                prefer = self.allocator.choose_target(entry, allowed=shard)
            if self.gc.needs_collection(*prefer):
                gc_result = self.gc.collect(prefer[0], prefer[1], completion)
                gc_time += max(0.0, gc_result.end_time - completion)
                completion = max(completion, gc_result.end_time)
            ppa = self._place(space_id, entry, coord, position, prefer)
            chunk = stored[position * page_bytes:(position + 1) * page_bytes]
            op = self._program(space_id, entry, coord, position, ppa,
                               rmw_done, [chunk])
            completion = max(completion, op.end_time)
            units += 1
        entry.stored_bytes = stored.size
        self.stats.count("stl_pages_programmed", units)
        self.stats.count("stl_blocks_compressed")
        return BlockOpResult(access=access, issue_time=issue_time,
                             completion_time=completion, pages=units,
                             nodes_visited=lookup.nodes_visited,
                             units_allocated=units, rmw_reads=rmw_reads,
                             gc_time=gc_time)

    # ------------------------------------------------------------------
    # the §4.2 unit lifecycle: place, program, release
    # ------------------------------------------------------------------
    def _place(self, space_id: int, entry: BlockEntry,
               coord: Tuple[int, ...], position: int, prefer=None):
        """Bind a fresh unit to ``entry.pages[position]`` under the
        §4.2 rules (``prefer`` pins its plane) and record its reverse
        entry."""
        ppa = self.allocator.allocate(
            entry, position, prefer=prefer,
            allowed=self._shard_planes.get(space_id))
        self.gc.note_alloc(ppa, space_id, coord, position)
        return ppa

    def _program(self, space_id: int, entry: BlockEntry,
                 coord: Tuple[int, ...], position: int, ppa, issue: float,
                 data: Optional[List[np.ndarray]]):
        """Program the unit bound at ``entry.pages[position]``. A
        status-fail marks a grown bad block: undo the binding, retire the
        block, re-place the unit at a fresh append point and program
        again, until a program succeeds. Returns the successful op."""
        while True:
            try:
                return self.flash.program_pages([ppa], issue, data=data)
            except ProgramFailError as err:
                self._release(entry, position)
                issue = self.gc.retire_block(ppa.channel, ppa.bank,
                                             ppa.block, err.fail_time)
                ppa = self._place(space_id, entry, coord, position)

    def _release(self, entry: BlockEntry, position: int):
        """Unbind ``entry.pages[position]``: the leaf slot, the plane's
        valid bit and the reverse entry go together, so a GC move never
        finds its slot empty. Returns the unit (None if the slot was
        empty)."""
        ppa = entry.record_release(position)
        if ppa is not None:
            self.allocator.invalidate(ppa)
            self.gc.note_release(ppa)
        return ppa

    def _release_parity(self, space_id: int, coord: Tuple[int, ...]):
        """Unbind a block's parity unit; returns it (None if none)."""
        ppa = self.parity.pop(space_id, coord)
        if ppa is not None:
            self.allocator.invalidate(ppa)
            self.gc.note_release(ppa)
        return ppa

    def _release_block(self, space_id: int, entry: BlockEntry) -> int:
        """Unbind every unit of a block, parity included; returns how
        many there were."""
        released = sum(self._release(entry, position) is not None
                       for position in range(len(entry.pages)))
        if self.parity is not None and \
                self._release_parity(space_id, entry.coord) is not None:
            released += 1
        return released

    def _resolve_entry(self, space_id: int,
                       block_coord: Tuple[int, ...]) -> Optional[BlockEntry]:
        index = self.indexes.get(space_id)
        if index is None:
            return None
        return index.find(block_coord)

    # ------------------------------------------------------------------
    # reliability internals
    # ------------------------------------------------------------------
    def _sync_faults(self) -> None:
        """Placement steers around dead channels: keep the allocator's
        view of the injector in step with the flash array's."""
        if self.allocator.faults is not self.flash.faults:
            self.allocator.faults = self.flash.faults

    def _patch_parity(self, space_id: int, coord: Tuple[int, ...],
                      new_ppa) -> None:
        """GC relocation callback for parity units."""
        self.parity.put(space_id, coord, new_ppa)

    def _update_parity(self, space_id: int, space: Space,
                       coord: Tuple[int, ...], entry: BlockEntry,
                       content: Optional[np.ndarray],
                       issue_time: float) -> float:
        """Re-derive and program the block's XOR parity unit.

        The parity unit covers every page slot of the block (unwritten
        slots count as zeros, matching reconstruction); the old unit is
        released first so the allocator can reuse its plane.
        """
        self._release_parity(space_id, coord)
        if content is None:
            content = self._block_buffer(space, entry)
        payload = xor_fold(content, self._page_size)
        issue = issue_time
        with self.gc._recovery():
            while True:
                ppa = self.allocator.allocate_raw(
                    allowed=self._shard_planes.get(space_id))
                try:
                    op = self.flash.program_pages([ppa], issue,
                                                  data=[payload])
                    break
                except ProgramFailError as err:
                    self.allocator.invalidate(ppa)
                    issue = self.gc.retire_block(ppa.channel, ppa.bank,
                                                 ppa.block, err.fail_time)
        self.parity.put(space_id, coord, ppa)
        self.gc.note_alloc(ppa, space_id, coord, PARITY_POSITION)
        self.stats.count("stl_parity_units_written")
        return op.end_time

    def _degraded_read(self, space_id: int, space: Space,
                       coord: Tuple[int, ...], entry: BlockEntry,
                       position: int, err: UncorrectableError) -> float:
        """Reconstruct one unreadable unit from its parity group.

        Reads every surviving unit of the block plus the parity unit
        (recovery traffic: probabilistic draws suppressed), XORs them
        back into the lost page, and relocates it to a fresh unit so
        the next read is clean. Raises :class:`DegradedReadError` when
        reconstruction is impossible, or re-raises the original error
        when parity is off.
        """
        faults = self.flash.faults
        faults.count("stl_uncorrectable_reads")
        if self.parity is None:
            raise err
        parity_ppa = self.parity.get(space_id, coord)
        if parity_ppa is None:
            raise DegradedReadError(
                err.ppa, err.fail_time,
                detail="no parity unit recorded for this block")
        survivors = [(pos, ppa) for pos, ppa in enumerate(entry.pages)
                     if ppa is not None and pos != position]
        end = err.fail_time
        page = np.zeros(self._page_size, dtype=np.uint8)
        with faults.suppress():
            try:
                for _pos, ppa in survivors + [(PARITY_POSITION, parity_ppa)]:
                    op = self.flash.read_pages([ppa], err.fail_time)
                    end = max(end, op.end_time)
                    page ^= self.flash.page_data(ppa)
            except (EccError, UncorrectableError) as sibling_err:
                raise DegradedReadError(
                    err.ppa, end,
                    detail=f"parity group member unreadable: {sibling_err}"
                ) from err
            # relocate the reconstructed unit off the failing page
            self._release(entry, position)
            new_ppa = self._place(space_id, entry, coord, position)
            op = self._program(space_id, entry, coord, position, new_ppa,
                               end, [page])
            end = max(end, op.end_time)
        faults.count("stl_degraded_reads")
        faults.count("stl_pages_reconstructed")
        self.stats.count("stl_degraded_reads")
        return end

    def _block_buffer(self, space: Space, entry: BlockEntry) -> np.ndarray:
        """Materialize a block's full byte content (zeros where
        unwritten), page-slot padded. Compressed blocks (§5.3.4) are
        inflated back to their raw layout."""
        total = space.pages_per_block * self._page_size
        buffer = np.zeros(total, dtype=np.uint8)
        if entry.stored_bytes is not None:
            stored = np.concatenate(
                [self.flash.page_data(ppa)
                 for ppa in entry.allocated_pages()])
            raw = self.compressor.decompress_block(
                stored[:max(entry.stored_bytes, 0)], space.block_bytes)
            buffer[:space.block_bytes] = raw
            return buffer
        for position, ppa in enumerate(entry.pages):
            if ppa is None:
                continue
            page = self.flash.page_data(ppa)
            buffer[position * self._page_size:
                   (position + 1) * self._page_size] = page
        return buffer

    def _scatter_block(self, space: Space, access: BlockAccess,
                       entry: Optional[BlockEntry],
                       out: np.ndarray) -> None:
        out_slicer = tuple(slice(lo, hi) for lo, hi in access.out_slice)
        if entry is None:
            out[out_slicer] = 0
            return
        out[out_slicer] = self._block_region(
            space, self._block_buffer(space, entry), access)

    @staticmethod
    def _block_region(space: Space, buffer: np.ndarray,
                      access: BlockAccess) -> np.ndarray:
        """The view of ``access``'s region inside a block buffer, shaped
        ``(*extent, element_size)``."""
        view = buffer[:space.block_bytes].reshape(
            space.bb + (space.element_size,))
        return view[tuple(slice(lo, hi) for lo, hi in access.block_slice)]
