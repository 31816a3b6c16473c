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
from typing import List, Optional, Sequence

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.nd import region_key
from repro.core.api import bytes_to_array
from repro.faults.model import FaultConfig
from repro.host.cpu import HostCpu
from repro.nvm.profiles import DeviceProfile
from repro.runtime.scheduler import QueueDepthWindow
from repro.systems.base import SystemOpResult
from repro.systems.nds import NdsSystem

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


class SoftwareNdsSystem(NdsSystem):
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
        self.queue_depth = queue_depth
        self.costs = costs
        self._init_device(
            profile, store_data, bb_override, cpu, faults, cache, devices,
            pool, extents_per_device, rebalance,
            lambda i, f: SoftwareNdsSystem(
                profile, store_data=store_data, queue_depth=queue_depth,
                costs=costs, bb_override=bb_override, faults=f,
                cache=cache))

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
                done = self._cache_region(
                    dataset, space_id, access, done,
                    data=self._region_data(space_id, access))
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
        raw = self._write_source(data, extents)
        elem = space.element_size
        window = QueueDepthWindow(self.queue_depth)
        completions: List[float] = []
        sent = 0
        tier = None if self._bulk_ingest else self.tier
        write_back = tier is not None and tier.config.write_back
        for access in accesses:
            earliest = window.earliest(setup_done)
            region = self._source_region(raw, access)
            if write_back:
                # one memcpy per block-row segment into the DRAM tier
                done = self._absorb_write(dataset, space_id, access, region,
                                          earliest,
                                          access.extent()[-1] * elem)
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
        _dataset, space_id, access = entry.payload
        done, _pages = self._write_access(space_id, access, entry.data, now)
        return done

    def _prefetch_region(self, space_id: int, space, access,
                         start: float) -> float:
        """One speculative block read: LightNVM command, link transfer
        and the host copy into the tier."""
        issued = self.cpu.run_issue_work(
            start,
            self.costs.per_command + self.costs.per_node * space.rank,
            label="stl_translate")
        block = self.stl.read_block(space_id, access, issued)
        elem = space.element_size
        transfer = self.link.transfer(block.pages * self.page_size,
                                      block.completion_time)
        return self.cpu.copy(access.element_count() * elem,
                             transfer.end_time, access.extent()[-1] * elem,
                             label="cache_copy")
