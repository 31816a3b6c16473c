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
from itertools import chain
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
from repro.faults.errors import DegradedReadError, UncorrectableError
from repro.faults.parity import PARITY_POSITION, ParityStore, xor_fold
from repro.ftl.mapping import OutOfSpaceError
from repro.nvm.address import ppa_to_index
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
        self.allocator.flash = flash
        self.gc = NdsGarbageCollector(self.allocator, flash,
                                      threshold=gc_threshold)
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
        #: a page index's plane number is ``ppa // _plane_pages``
        self._plane_pages = flash.geometry.pages_per_bank

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
                # the entry itself moves: its units' owner slots hold it
                new_index.adopt(entry)
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
        index = self.indexes[space_id]
        lookup = index.lookup(access.block_coord)
        positions = pages_for_region(space, access.block_slice)
        completion = issue_time
        pages_read = 0
        entry = lookup.entry
        if entry is not None:
            # One read chain, every unit issued at ``issue_time``. A unit
            # that fails is rebuilt from parity, whose re-reads of the
            # units before it end after them, and the chain resumes.
            # Compressed blocks are stored whole: any read touches every
            # (fewer) stored unit (§5.3.4), and a lost one is not rebuilt.
            pages = entry.pages
            ppas = (entry.allocated_pages() if entry.stored_bytes is not None
                    else [pages[p] for p in positions if pages[p] is not None])
            while ppas:
                try:
                    end = self.flash.read_pages(ppas, issue_time)
                except UncorrectableError as err:
                    if entry.stored_bytes is not None:
                        raise
                    lost = ppa_to_index(err.ppa, self.geometry)
                    read, position = ppas.index(lost), pages.index(lost)
                    end = self._degraded_read(space_id, space,
                                              access.block_coord, entry,
                                              position, err)
                    pages_read += read + 1  # the rebuilt unit counts too
                    # the rebuild's re-drive can move later units
                    ppas = [pages[p] for p in positions
                            if p > position and pages[p] is not None]
                else:
                    pages_read += len(ppas)
                    ppas = ()
                completion = max(completion, end)
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
        ``(*extent, element_size)`` uint8 payload (None = timing only).
        With a compressor and a payload the block is stored whole, in
        fewer units of codec bytes (§5.3.4); plain and compressed writes
        bind and program their units in the one loop below."""
        space = self.get_space(space_id)
        index = self.indexes[space_id]
        lookup = index.ensure(access.block_coord)
        entry = lookup.entry
        page_bytes = self._page_size
        compressed = self.compressor is not None
        content: Optional[np.ndarray] = None
        pinned = ()
        if compressed:
            if region is None:
                # a timing-only write still rewrites the block whole: its
                # region reads back as zeros
                region = np.zeros(access.extent() + (space.element_size,),
                                  dtype=np.uint8)
            # §5.3.4: merge the region into the whole block (read every
            # stored unit if the write is partial, decompress), compress
            # it, and release every old unit. The units of codec bytes
            # take the old units' planes first, in position order.
            rmw_done, rmw_reads = self._merge_read(
                space, access, entry.allocated_pages(), issue_time)
            raw = self._block_buffer(space, entry)
            self._block_region(space, raw, access)[...] = region
            content = self.compressor.compress_block(
                raw[:space.block_bytes])
            needed = max(1, -(-content.size // page_bytes))
            if needed > len(entry.pages):
                # the codec header can push an incompressible block one
                # page past its raw footprint; every old unit is still
                # bound, so its usage record is counted again here,
                # before the release
                entry.extend_pages(needed)
            pinned = []
            for position in range(len(entry.pages)):
                ppa = self._release(entry, position)
                if ppa is not None:
                    pinned.append(self.allocator.plane_of(ppa).key)
            positions = range(needed)
        else:
            # Merge phase: materialize current block content for the
            # touched pages if the write covers them only partially
            # (read-modify-write on overwrite, new-unit programming per
            # NAND rules).
            positions = pages_for_region(space, access.block_slice)
            existing = []
            if self.flash.store_data and region is not None:
                content = self._block_buffer(space, entry)
                self._block_region(space, content, access)[...] = region
            if content is not None or not self.flash.store_data:
                existing = [entry.pages[p] for p in positions
                            if entry.pages[p] is not None]
            rmw_done, rmw_reads = self._merge_read(space, access, existing,
                                                   issue_time)

        # Bind each unit and queue its program on the pending chain,
        # which goes to the flash array as one call before a collection
        # and at the end: every page still issues at ``rmw_done`` in
        # position order, so the timings equal per-page programs. A unit
        # whose program verdict fails flushes the chain and is programmed
        # alone, so that a ProgramFailError can re-place it.
        completion = rmw_done
        units = 0
        gc_time = 0.0
        pending_ppas: List = []
        pending_data: Optional[List[np.ndarray]] = \
            [] if content is not None else None
        pages = entry.pages
        planes = self.allocator.planes
        planes_by_number = self.allocator.planes_by_number
        plane_pages = self._plane_pages
        faults = self.flash.faults
        gc = self.gc
        trigger_mark = gc.trigger_mark
        elide = self.elide_zero_pages and not compressed
        # The block's §4.2 placement plan (rules 1-3) and its usage
        # count, each bound at its first fresh unit. The plan holds
        # while each plane it yields is bound there; anything else that
        # moves the usage record or ``last_alloc`` drops it, and the
        # next fresh unit binds a new one. A compressed write's plan
        # yields the pinned planes of the positions still to come
        # first.
        plan = count = None
        for position in positions:
            old = pages[position]
            if old is None:
                # A fresh unit: the plan's next plane.
                if plan is None:
                    plan = self.allocator.placement_plan(
                        entry, self._shard_planes.get(space_id))
                    if pinned:
                        plan = chain(pinned[position:], plan)
                prefer = next(plan)
                plane = planes[prefer]
            else:
                # The overwrite step (§4.2 pins an overwrite to the old
                # unit's plane). 1. Unbind: the leaf slot and the page's
                # owner slot empty now; the usage record keeps its
                # count. Its bind moves ``last_alloc``: re-plan.
                self._unbind(entry, position)
                plane = planes_by_number[old // plane_pages]
                prefer = plane.key
                plan = None
            dead = faults is not None and faults.channel_dead(prefer[0])
            # 2. Trigger test, run with the slot already empty; a unit
            # bound for a dead channel skips it, since it takes the
            # rule-4 fallback. The held count is released if the
            # collection raises; a GC move rebinds ``last_alloc``, so
            # the collection drops the plan.
            if plane.free_pages < trigger_mark and not dead:
                try:
                    if pending_ppas:
                        done = self.flash.program_pages(
                            pending_ppas, rmw_done, pending_data)
                        if done > completion:
                            completion = done
                        pending_ppas = []
                        pending_data = \
                            [] if content is not None else None
                    gc_result = gc.collect(prefer[0], prefer[1], completion)
                except BaseException:
                    if old is not None:
                        entry.release_counts(old)
                    raise
                gc_time += max(0.0, gc_result.end_time - completion)
                completion = max(completion, gc_result.end_time)
                plan = None
                # the collection's flash ops may have seen a later kill
                dead = faults is not None and faults.channel_dead(prefer[0])
            payload = None
            if content is not None:
                start = position * page_bytes
                payload = [content[start:start + page_bytes]]
            if (elide and payload is not None and old is None
                    and not payload[0].any()):
                # sparse optimization (§8): never materialize an
                # all-zero page; the empty leaf slot reads back as zeros.
                # The plane goes unbound: re-plan (rules 1 and 3 draw
                # again).
                self.stats.count("stl_pages_elided")
                plan = None
                continue
            # 3. Bind at the plane's append point, owned by the leaf. An
            # overwrite keeps its count (a unit on the same plane leaves
            # the usage record as it was, see BlockEntry.rebind); a
            # fresh unit is counted. A full plane or a dead channel
            # releases an overwrite's held count and takes _place's
            # rule-4 fallback, off the plan.
            ppa = None
            if not dead:
                try:
                    ppa = plane.allocate_page(entry)
                except OutOfSpaceError:
                    pass
            if ppa is None:
                if old is not None:
                    entry.release_counts(old)
                ppa = self._place(space_id, entry, position, prefer)
                plan = None
            else:
                if old is None:
                    if count is None:
                        # the block's first counted unit: count its
                        # record first, while its slot is still empty
                        if entry.usage is None:
                            entry.count_usage(self.geometry)
                        count = entry.counter()
                    count(ppa)
                pages[position] = ppa
                entry.last_alloc = ppa
            units += 1
            if faults is None or faults.program_check(ppa) is None:
                pending_ppas.append(ppa)
                if pending_data is not None:
                    pending_data.append(payload[0])
                continue
            if pending_ppas:
                completion = max(completion, self.flash.program_pages(
                    pending_ppas, rmw_done, pending_data))
                pending_ppas = []
                pending_data = [] if content is not None else None
            completion = max(completion, self._program(
                space_id, entry, position, ppa, rmw_done, payload))
            if entry.last_alloc != ppa:
                # a re-drive placed the unit again
                plan = None
        if pending_ppas:
            done = self.flash.program_pages(pending_ppas, rmw_done,
                                            pending_data)
            if done > completion:
                completion = done
        if self.parity is not None:
            parity_end = self._update_parity(space_id, space,
                                             access.block_coord, entry,
                                             content, rmw_done)
            completion = max(completion, parity_end)
        self.stats.count("stl_pages_programmed", units)
        if compressed:
            entry.stored_bytes = content.size
            self.stats.count("stl_blocks_compressed")
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

    def _merge_read(self, space: Space, access: BlockAccess, ppas: List,
                    issue_time: float) -> Tuple[float, int]:
        """The read half of a read-modify-write: read ``ppas`` at
        ``issue_time`` unless the write covers the whole block. The
        write's programs issue at the read's end, so the channels that
        died by then steer its placement. Returns the read's end and the
        pages read."""
        covers_block = all(
            lo == 0 and hi == extent
            for (lo, hi), extent in zip(access.block_slice, space.bb))
        done, reads = issue_time, 0
        if ppas and not covers_block:
            done = self.flash.read_pages(ppas, issue_time)
            reads = len(ppas)
        if self.flash.faults is not None:
            self.flash.faults.advance(done)
        return done, reads

    # ------------------------------------------------------------------
    # the §4.2 unit lifecycle: place, program, release
    # ------------------------------------------------------------------
    def _place(self, space_id: int, entry: BlockEntry, position: int,
               prefer=None):
        """Bind a fresh unit, owned by ``entry``, to
        ``entry.pages[position]`` under the §4.2 rules (``prefer`` pins
        its plane), through ``allocator.allocate`` (``choose_target``,
        the first plane of a placement plan, then rule 4's fallback) and
        the usage step ``BlockEntry.counter`` binds.

        ``write_block`` binds a unit, compressed writes' included, at
        its plan's (or pinned) plane itself and comes here only for the
        rule-4 fallback; the re-drive of :meth:`_program` and the
        degraded-read relocation place every unit here."""
        return self.allocator.allocate(
            entry, position, prefer=prefer,
            allowed=self._shard_planes.get(space_id))

    def _program(self, space_id: int, entry: BlockEntry, position: int,
                 ppa, issue: float,
                 data: Optional[List[np.ndarray]]) -> float:
        """Program the unit of ``entry.pages[position]`` at ``ppa``
        (None: place it first), re-driven past a status-fail
        (:meth:`~repro.ftl.gc.RelocatingCollector.program_page`).
        Returns the program's completion."""
        return self.gc.program_page(
            ppa, issue, data, lambda _ppa: self._release(entry, position),
            lambda: self._place(space_id, entry, position))[1]

    def _unbind(self, entry: BlockEntry, position: int):
        """Empty ``entry.pages[position]``: the leaf slot and the page's
        owner slot go together, so a GC move never finds its leaf slot
        empty. The usage record still counts the unit. Returns the unit
        (None if the slot was empty)."""
        ppa = entry.pages[position]
        if ppa is not None:
            entry.pages[position] = None
            self.allocator.invalidate(ppa)
        return ppa

    def _release(self, entry: BlockEntry, position: int):
        """Unbind ``entry.pages[position]`` and drop the unit from the
        usage record. Returns the unit (None if the slot was empty)."""
        ppa = self._unbind(entry, position)
        if ppa is not None:
            entry.release_counts(ppa)
        return ppa

    def _release_parity(self, space_id: int, coord: Tuple[int, ...]):
        """Unbind a block's parity unit; returns it (None if none)."""
        ppa = self.parity.pop(space_id, coord)
        if ppa is not None:
            self.allocator.invalidate(ppa)
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

    # ------------------------------------------------------------------
    # reliability internals
    # ------------------------------------------------------------------
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
        with self.gc._recovery():
            ppa, end = self.gc.program_page(
                None, issue_time, (payload,), self.allocator.invalidate,
                lambda: self.allocator.allocate_raw(
                    (space_id, coord),
                    allowed=self._shard_planes.get(space_id)))
        self.parity.put(space_id, coord, ppa)
        self.stats.count("stl_parity_units_written")
        return end

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
                    end = max(end, self.flash.read_pages((ppa,),
                                                         err.fail_time))
                    page ^= self.flash.page_data(ppa)
            except (EccError, UncorrectableError) as sibling_err:
                raise DegradedReadError(
                    err.ppa, end,
                    detail=f"parity group member unreadable: {sibling_err}"
                ) from err
            # relocate the reconstructed unit off the failing page
            self._release(entry, position)
            end = max(end, self._program(space_id, entry, position, None,
                                         end, [page]))
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
