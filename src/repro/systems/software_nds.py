"""The software-only NDS architecture (paper Fig. 7(b)).

All NDS functions — the API and the STL — run on the host processor;
the device is reached through a LightNVM-style interface that exposes
physical addresses, so the STL's building-block placement is honoured
but every byte still crosses the interconnect and every object is
assembled **in host memory**: the per-building-block-row copies
(256 × 2 KB per block in the paper's §7.1 configuration) ride the host
CPU and bound the effective bandwidth at ~3.8 GB/s.

Cost calibration (§7.3): a worst-case single-page request pays ~41 µs
over the baseline — the API/LightNVM submission base cost plus the
host-side B-tree walk and translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.nd import (neighbor_regions, region_group, region_key,
                            slices_overlap)
from repro.core.api import bytes_to_array
from repro.core.errors import FaultError, NdsError
from repro.core.stl import SpaceTranslationLayer
from repro.core.translator import pages_for_region
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultConfig
from repro.host.cpu import HostCpu
from repro.interconnect.link import Link
from repro.nvm.flash import FlashArray
from repro.nvm.profiles import DeviceProfile
from repro.runtime.scheduler import QueueDepthWindow
from repro.systems.base import StorageSystem, SystemOpResult

__all__ = ["SoftwareNdsSystem", "SoftwareStlCosts"]


@dataclass(frozen=True)
class SoftwareStlCosts:
    """Host-side STL cost parameters (seconds)."""

    #: per API request: syscall + LightNVM submission setup
    request_base: float = 30e-6
    #: per B-tree node visited on the host
    per_node: float = 2e-6
    #: per building block translated (Eq. 5 arithmetic)
    per_block: float = 0.6e-6
    #: per vectored LightNVM command issued (one per building block)
    per_command: float = 4e-6
    #: per physical unit on the *write* path: PPA-list construction,
    #: per-page completion handling and map/OOB bookkeeping through the
    #: host kernel stack. Calibrated so the software NDS write penalty
    #: matches Fig. 9(d)'s ~30 % loss against the baseline.
    per_unit_write: float = 19e-6


class SoftwareNdsSystem(StorageSystem):
    """Host-resident STL over LightNVM physical addressing."""

    name = "software-nds"

    def __init__(self, profile: DeviceProfile, store_data: bool = False,
                 queue_depth: int = 32,
                 costs: SoftwareStlCosts = SoftwareStlCosts(),
                 bb_override: Optional[Sequence[int]] = None,
                 cpu: Optional[HostCpu] = None,
                 faults: Optional[FaultConfig] = None,
                 devices: int = 1, pool=None,
                 extents_per_device: int = 1, rebalance=None,
                 cache: Optional[CacheConfig] = None) -> None:
        self.profile = profile
        self.store_data = store_data
        self.queue_depth = queue_depth
        self.costs = costs
        self.bb_override = bb_override
        self.page_size = profile.geometry.page_size
        if self._init_cluster(
                devices, pool, faults, rebalance, extents_per_device,
                lambda i, f: SoftwareNdsSystem(
                    profile, store_data=store_data, queue_depth=queue_depth,
                    costs=costs, bb_override=bb_override, faults=f,
                    cache=cache)):
            return
        self.flash = FlashArray(profile.geometry, profile.timing,
                                store_data=store_data)
        if faults is not None:
            self.flash.attach_faults(FaultInjector(faults))
        self.stl = SpaceTranslationLayer(self.flash,
                                         gc_threshold=profile.overprovisioning,
                                         parity=faults.parity
                                         if faults is not None else False)
        self.link = Link(profile.link_bandwidth, profile.link_command_overhead)
        self.cpu = cpu if cpu is not None else HostCpu()
        self._spaces: Dict[str, int] = {}
        self._bulk_ingest = False
        self._init_tier(cache)

    def _probed_layers(self) -> tuple:
        return (self.cpu, self.link, self.flash, self.stl.gc, self.tier)

    # ------------------------------------------------------------------
    def _execute_ingest(self, dataset: str, dims: Sequence[int],
                        element_size: int,
                        data: Optional[np.ndarray] = None,
                        start_time: float = 0.0,
                        shard=None) -> SystemOpResult:
        if dataset in self._spaces:
            raise ValueError(f"dataset {dataset!r} already ingested")
        space = self.stl.create_space(
            dims, element_size, bb_override=self.bb_override,
            shard=shard,
            # rank >= 3: use bank-level parallelism for 3-D cube blocks
            # (§4.1 Eq. 3/4) — 2-D blocks orthogonal to the innermost
            # axis would shatter depth-crossing accesses
            use_3d_blocks=len(tuple(dims)) >= 3 and self.bb_override is None)
        self._spaces[dataset] = space.space_id
        # bulk load bypasses the DRAM tier: a whole dataset would blow
        # through the byte budget and churn the dirty set for nothing
        self._bulk_ingest = True
        try:
            return self._execute_write(dataset, tuple(0 for _ in dims), dims,
                                       data=data, start_time=start_time)
        finally:
            self._bulk_ingest = False

    # ------------------------------------------------------------------
    def _execute_read(self, dataset: str, origin: Sequence[int],
                      extents: Sequence[int], start_time: float = 0.0,
                      with_data: bool = False,
                      dtype: Optional[np.dtype] = None) -> SystemOpResult:
        space_id = self._space_id(dataset)
        space = self.stl.get_space(space_id)
        accesses = self.stl.plan_region(space_id, origin, extents)
        # Host-side request setup: API + space-translation arithmetic.
        setup_done = self.cpu.run_issue_work(
            start_time,
            self.costs.request_base + self.costs.per_block * len(accesses),
            label="stl_translate")

        out = None
        if with_data and self.store_data:
            out = np.zeros(tuple(extents) + (space.element_size,),
                           dtype=np.uint8)
        elem = space.element_size
        window = QueueDepthWindow(self.queue_depth)
        completions: List[float] = []
        fetched = 0
        tier = self.tier
        missed = tier is None
        for access in accesses:
            earliest = window.earliest(setup_done)
            region_bytes = access.element_count() * elem
            row_bytes = access.extent()[-1] * elem
            if tier is not None:
                entry = tier.lookup(region_key(dataset, access))
                if entry is not None:
                    # DRAM hit: one marshalling copy at host-memory
                    # bandwidth, no command/flash/link work at all
                    if out is not None and entry.data is not None:
                        slicer = tuple(slice(lo, hi)
                                       for lo, hi in access.out_slice)
                        out[slicer] = entry.data
                    done = self.cpu.copy(region_bytes, earliest, row_bytes,
                                         label="cache_copy")
                    window.complete(done)
                    completions.append(done)
                    continue
                missed = True
                # coherence: buffered dirty regions overlapping this
                # block slice must reach flash before we read around them
                earliest = self._flush_overlapping(dataset, access, earliest)
            # One vectored LightNVM command per building block, plus the
            # host B-tree walk for that block.
            issued = self.cpu.run_issue_work(
                earliest,
                self.costs.per_command + self.costs.per_node * space.rank,
                label="stl_translate")
            block = self.stl.read_block(space_id, access, issued, out=out)
            fetched += block.pages * self.page_size
            transfer = self.link.transfer(block.pages * self.page_size,
                                          block.completion_time)
            # Host assembly: scatter the block's rows into the tile
            # buffer — one memcpy per block-row segment ([P1] residue).
            done = self.cpu.copy(region_bytes, transfer.end_time, row_bytes)
            if tier is not None:
                data = (self.stl.block_region_data(space_id, access)
                        if self.store_data else None)
                done = tier.insert(region_key(dataset, access), region_bytes,
                                   done, payload=(dataset, space_id, access),
                                   data=data,
                                   group=region_group(dataset, access))
            window.complete(done)
            completions.append(done)
        end = max(completions, default=setup_done)
        if tier is not None and missed and tier.config.prefetch:
            # async readahead: neighbor regions ride the shared
            # timelines after the demand work but do not hold up this
            # op's completion
            self._prefetch_neighbors(dataset, space_id, space, origin,
                                     extents, end)
        useful = elem
        for extent in extents:
            useful *= extent
        data = None
        if out is not None:
            data = out if dtype is None else bytes_to_array(out, dtype)
        return SystemOpResult(start_time=start_time, end_time=end,
                              useful_bytes=useful, fetched_bytes=fetched,
                              requests=len(accesses), data=data)

    # ------------------------------------------------------------------
    def _execute_write(self, dataset: str, origin: Sequence[int],
                       extents: Sequence[int],
                       data: Optional[np.ndarray] = None,
                       start_time: float = 0.0) -> SystemOpResult:
        space_id = self._space_id(dataset)
        space = self.stl.get_space(space_id)
        accesses = self.stl.plan_region(space_id, origin, extents)
        setup_done = self.cpu.run_issue_work(
            start_time,
            self.costs.request_base + self.costs.per_block * len(accesses),
            label="stl_translate")
        raw = None
        if data is not None and self.store_data:
            array = np.ascontiguousarray(np.asarray(data))
            if tuple(array.shape) != tuple(extents):
                raise ValueError(
                    f"data shape {array.shape} != extents {tuple(extents)}")
            raw = array.view(np.uint8).reshape(
                tuple(extents) + (array.dtype.itemsize,))
        elem = space.element_size
        window = QueueDepthWindow(self.queue_depth)
        completions: List[float] = []
        sent = 0
        tier = None if self._bulk_ingest else self.tier
        write_back = tier is not None and tier.config.write_back
        for access in accesses:
            earliest = window.earliest(setup_done)
            region = None
            if raw is not None:
                slicer = tuple(slice(lo, hi) for lo, hi in access.out_slice)
                region = raw[slicer]
            if write_back:
                done = self._absorb_write(dataset, space_id, access, region,
                                          earliest)
                window.complete(done)
                completions.append(done)
                continue
            done, pages = self._write_access(space_id, access, region,
                                             earliest)
            sent += pages * self.page_size
            if tier is not None:
                self._note_write_through(dataset, space_id, access)
            window.complete(done)
            completions.append(done)
        end = max(completions, default=setup_done)
        useful = elem
        for extent in extents:
            useful *= extent
        return SystemOpResult(start_time=start_time, end_time=end,
                              useful_bytes=useful, fetched_bytes=sent,
                              requests=len(accesses))

    def _write_access(self, space_id: int, access, region,
                      earliest: float) -> tuple:
        """One building-block device write: gather copy → LightNVM
        command → link transfer → STL write. Shared by the direct write
        path and write-back flushes, so a deferred flush costs exactly
        what the write would have."""
        space = self.stl.get_space(space_id)
        elem = space.element_size
        # Host breaks the source object into the block's layout:
        # one memcpy per block-row segment (the paper's 256 × 2 KB).
        region_bytes = access.element_count() * elem
        row_bytes = access.extent()[-1] * elem
        gathered = self.cpu.copy(region_bytes, earliest, row_bytes)
        pages = self._pages_of(space_id, access)
        issued = self.cpu.run_issue_work(
            gathered,
            self.costs.per_command + self.costs.per_node * space.rank
            + self.costs.per_unit_write * pages,
            label="stl_translate")
        transfer = self.link.transfer(pages * self.page_size, issued)
        block = self.stl.write_block(space_id, access, transfer.end_time,
                                     region=region)
        return block.completion_time, pages

    # ------------------------------------------------------------------
    # DRAM tier glue (only reached with cache=CacheConfig(...) set)
    # ------------------------------------------------------------------
    def _flush_cache_entry(self, entry, now: float) -> float:
        """Write one buffered dirty region back through the device."""
        _dataset, space_id, access = entry.payload
        done, _pages = self._write_access(space_id, access, entry.data, now)
        return done

    def _flush_overlapping(self, dataset: str, access,
                           now: float) -> float:
        """Flush buffered dirty regions overlapping ``access``."""
        tier = self.tier
        for key in tier.group_keys(region_group(dataset, access)):
            entry = tier.get(key)
            if entry is None or not entry.dirty:
                continue
            if slices_overlap(entry.payload[2].block_slice,
                              access.block_slice):
                now = tier.flush_entry(key, now)
        return now

    def _absorb_write(self, dataset: str, space_id: int, access, region,
                      earliest: float) -> float:
        """Write-back: absorb one region into DRAM (gather copy only);
        the device write happens at eviction, dirty-bound or fence."""
        tier = self.tier
        space = self.stl.get_space(space_id)
        elem = space.element_size
        region_bytes = access.element_count() * elem
        row_bytes = access.extent()[-1] * elem
        done = self.cpu.copy(region_bytes, earliest, row_bytes,
                             label="cache_copy")
        key = region_key(dataset, access)
        # overlapping buffered regions: older dirty data must hit flash
        # first (write order), overlapping clean copies are now stale
        for other in tier.group_keys(region_group(dataset, access)):
            if other == key:
                continue
            entry = tier.get(other)
            if entry is None:
                continue
            if slices_overlap(entry.payload[2].block_slice,
                              access.block_slice):
                if entry.dirty:
                    done = tier.flush_entry(other, done)
                tier.invalidate(other)
        data = None
        if region is not None:
            data = np.ascontiguousarray(region).copy()
        return tier.insert(key, region_bytes, done,
                           payload=(dataset, space_id, access), data=data,
                           dirty=True, group=region_group(dataset, access))

    def _note_write_through(self, dataset: str, space_id: int,
                            access) -> None:
        """Write-through coherence: refresh the exact cached region,
        drop overlapping neighbors (their bytes are now stale)."""
        tier = self.tier
        key = region_key(dataset, access)
        for other in tier.group_keys(region_group(dataset, access)):
            if other == key:
                continue
            entry = tier.get(other)
            if entry is not None and slices_overlap(
                    entry.payload[2].block_slice, access.block_slice):
                tier.invalidate(other)
        entry = tier.get(key)
        if entry is not None and self.store_data:
            entry.data = self.stl.block_region_data(space_id, access)

    def _prefetch_neighbors(self, dataset: str, space_id: int, space,
                            origin: Sequence[int], extents: Sequence[int],
                            start: float) -> None:
        """Fetch forward neighbor regions along the accessed axes into
        the tier (charged on the shared timelines, asynchronously)."""
        tier = self.tier
        elem = space.element_size
        for p_origin, p_extents in neighbor_regions(
                space.dims, origin, extents, tier.config.prefetch):
            for access in self.stl.plan_region(space_id, p_origin,
                                               p_extents):
                key = region_key(dataset, access)
                if tier.contains(key):
                    continue
                issued = self.cpu.run_issue_work(
                    start,
                    self.costs.per_command + self.costs.per_node * space.rank,
                    label="stl_translate")
                try:
                    block = self.stl.read_block(space_id, access, issued)
                except (NdsError, FaultError):
                    continue  # speculative read; demand path will retry
                region_bytes = access.element_count() * elem
                transfer = self.link.transfer(
                    block.pages * self.page_size, block.completion_time)
                done = self.cpu.copy(region_bytes, transfer.end_time,
                                     access.extent()[-1] * elem,
                                     label="cache_copy")
                data = (self.stl.block_region_data(space_id, access)
                        if self.store_data else None)
                tier.insert(key, region_bytes, done,
                            payload=(dataset, space_id, access), data=data,
                            prefetched=True,
                            group=region_group(dataset, access))

    # ------------------------------------------------------------------
    def reset_time(self) -> None:
        if self.cluster is not None:
            self.cluster.reset_time()
            self._reset_runtime()
            return
        self.flash.reset_time()
        self.link.reset_time()
        self.cpu.reset_time()
        self._reset_runtime()

    # ------------------------------------------------------------------
    def _cluster_align(self, dims: Sequence[int], element_size: int,
                       params: dict) -> int:
        """Extent boundaries land on building-block rows so declustered
        sub-spaces keep the same block shape the whole space would get."""
        from repro.core.space import Space
        dims = tuple(int(d) for d in dims)
        space = Space.create(
            -1, dims, int(element_size), self.stl.geometry,
            bb_override=self.bb_override,
            use_3d_blocks=len(dims) >= 3 and self.bb_override is None)
        return int(space.bb[0])

    # ------------------------------------------------------------------
    def _space_id(self, dataset: str) -> int:
        space_id = self._spaces.get(dataset)
        if space_id is None:
            raise KeyError(f"unknown dataset {dataset!r}")
        return space_id

    def _pages_of(self, space_id: int, access) -> int:
        space = self.stl.get_space(space_id)
        return len(pages_for_region(space, access.block_slice))
