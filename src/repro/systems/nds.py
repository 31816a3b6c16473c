"""Shared shell of the two NDS architectures (paper Fig. 7(b)/(c)).

Both NDS systems address datasets as STL spaces over one
:class:`~repro.core.stl.SpaceTranslationLayer` on a physically
addressed flash array; they differ only in *where* the STL runs (host
or device controller) and so in how a read or write is charged.
:class:`NdsSystem` holds what they share: the device construction, the
ingest path, the space lookup, the pool alignment quantum, and the
DRAM-tier coherence rules over block regions. Each subclass supplies
its read and write flows, its write-back flush and a one-region
prefetch step.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cache.nd import (neighbor_regions, region_group, region_key,
                            slices_overlap)
from repro.core.errors import FaultError, NdsError
from repro.core.stl import SpaceTranslationLayer
from repro.core.translator import pages_for_region
from repro.faults.injector import FaultInjector
from repro.host.cpu import HostCpu
from repro.interconnect.link import Link
from repro.nvm.flash import FlashArray
from repro.systems.base import StorageSystem, SystemOpResult

__all__ = ["NdsSystem"]


class NdsSystem(StorageSystem):
    """STL space addressing over a LightNVM-style flash array."""

    def _init_device(self, profile, store_data: bool,
                     bb_override: Optional[Sequence[int]],
                     cpu: Optional[HostCpu], faults, cache, devices: int,
                     pool, extents_per_device: int, rebalance,
                     factory) -> bool:
        """Build the flash array, STL, link and host CPU, or a device
        pool of ``factory``-built members when more than one device is
        asked for. Returns True when pooled (the caller then builds no
        device parts of its own)."""
        self.profile = profile
        self.store_data = store_data
        self.bb_override = bb_override
        self.page_size = profile.geometry.page_size
        if self._init_cluster(devices, pool, faults, rebalance,
                              extents_per_device, factory):
            return True
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
        return False

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

    def _write_source(self, data: Optional[np.ndarray],
                      extents: Sequence[int]) -> Optional[np.ndarray]:
        """The write payload as a ``(*extents, element_size)`` uint8
        view (None when running timing-only)."""
        if data is None or not self.store_data:
            return None
        array = np.ascontiguousarray(np.asarray(data))
        if tuple(array.shape) != tuple(extents):
            raise ValueError(
                f"data shape {array.shape} != extents {tuple(extents)}")
        return array.view(np.uint8).reshape(
            tuple(extents) + (array.dtype.itemsize,))

    @staticmethod
    def _source_region(raw: Optional[np.ndarray], access):
        """The part of a write payload that lands in one block access."""
        if raw is None:
            return None
        return raw[tuple(slice(lo, hi) for lo, hi in access.out_slice)]

    # ------------------------------------------------------------------
    def reset_time(self) -> None:
        if self.cluster is not None:
            self.cluster.reset_time()
        else:
            self._reset_timelines()
        self._reset_runtime()

    def _reset_timelines(self) -> None:
        self.flash.reset_time()
        self.link.reset_time()
        self.cpu.reset_time()

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

    def _space_id(self, dataset: str) -> int:
        space_id = self._spaces.get(dataset)
        if space_id is None:
            raise KeyError(f"unknown dataset {dataset!r}")
        return space_id

    def _pages_of(self, space_id: int, access) -> int:
        space = self.stl.get_space(space_id)
        return len(pages_for_region(space, access.block_slice))

    # ------------------------------------------------------------------
    # DRAM tier glue (only reached with cache=CacheConfig(...) set)
    # ------------------------------------------------------------------
    def _region_data(self, space_id: int, access) -> Optional[np.ndarray]:
        """A region's stored bytes for the tier (None timing-only)."""
        if not self.store_data:
            return None
        return self.stl.block_region_data(space_id, access)

    def _cache_region(self, dataset: str, space_id: int, access,
                      now: float, data=None, dirty: bool = False,
                      prefetched: bool = False) -> float:
        """Insert one block region into the tier; returns the time after
        any evictions or flushes the insertion forced."""
        elem = self.stl.get_space(space_id).element_size
        return self.tier.insert(
            region_key(dataset, access), access.element_count() * elem, now,
            payload=(dataset, space_id, access), data=data, dirty=dirty,
            prefetched=prefetched, group=region_group(dataset, access))

    @abc.abstractmethod
    def _flush_cache_entry(self, entry, now: float) -> float:
        """Write one buffered dirty region back through the device, so
        a deferred flush costs exactly what the write would have."""

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
                      earliest: float, row_bytes: int) -> float:
        """Write-back: absorb one region into DRAM with one host copy
        (``row_bytes`` per segment, 0 for a contiguous copy); the device
        write happens at eviction, dirty-bound or fence."""
        tier = self.tier
        elem = self.stl.get_space(space_id).element_size
        done = self.cpu.copy(access.element_count() * elem, earliest,
                             row_bytes, label="cache_copy")
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
        return self._cache_region(dataset, space_id, access, done,
                                  data=data, dirty=True)

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
        for p_origin, p_extents in neighbor_regions(
                space.dims, origin, extents, tier.config.prefetch):
            for access in self.stl.plan_region(space_id, p_origin,
                                               p_extents):
                if tier.contains(region_key(dataset, access)):
                    continue
                try:
                    done = self._prefetch_region(space_id, space, access,
                                                 start)
                except (NdsError, FaultError):
                    continue  # speculative read; demand path will retry
                self._cache_region(dataset, space_id, access, done,
                                   data=self._region_data(space_id, access),
                                   prefetched=True)

    @abc.abstractmethod
    def _prefetch_region(self, space_id: int, space, access,
                         start: float) -> float:
        """Fetch one neighbor region issued at ``start``; returns when
        it lands in host DRAM. A failed read raises, and the caller
        skips that region."""
