"""The software oracle (paper §7.2, Fig. 10(a) "Software (Oracle)").

"An oracle configuration where we exhaustively search for the best
storage data layout that incurs zero overhead on the host and minimum
end-to-end latency." We model its end state directly: every dataset is
stored **tile-major** for exactly the tile shape the consumer will
request, so every aligned tile read is one contiguous LBA range —
large, saturating, DMA-direct requests with no marshalling.

Workloads that share a dataset under different shapes need one stored
copy per shape (the paper stores two copies for BFS/SSSP, KMeans/KNN
and TTV/TC); the oracle tracks that capacity cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultConfig
from repro.ftl.ssd import BaselineSSD
from repro.host.cpu import HostCpu
from repro.host.io_engine import HostIoEngine, IoRequest
from repro.interconnect.link import Link
from repro.nvm.profiles import DeviceProfile
from repro.systems.base import StorageSystem, SystemOpResult
from repro.systems.baseline import DEFAULT_MAX_REQUEST_BYTES, LpnTierOps

__all__ = ["OracleSystem"]


@dataclass
class _TiledCopy:
    start_page: int
    dims: Tuple[int, ...]
    element_size: int
    tile: Tuple[int, ...]
    grid: Tuple[int, ...]
    tile_pages: int


class OracleSystem(LpnTierOps, StorageSystem):
    """Best-possible software layout: tile-major storage per consumer."""

    name = "software-oracle"

    def __init__(self, profile: DeviceProfile, store_data: bool = False,
                 queue_depth: int = 32,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
                 faults: Optional[FaultConfig] = None,
                 devices: int = 1, pool=None,
                 extents_per_device: int = 1, rebalance=None,
                 cache: Optional[CacheConfig] = None) -> None:
        self.profile = profile
        self.store_data = store_data
        self.max_request_bytes = max_request_bytes
        self.page_size = profile.geometry.page_size
        if self._init_cluster(
                devices, pool, faults, rebalance, extents_per_device,
                lambda i, f: OracleSystem(
                    profile, store_data=store_data, queue_depth=queue_depth,
                    max_request_bytes=max_request_bytes, faults=f,
                    cache=cache)):
            return
        self.ssd = BaselineSSD(profile, store_data=store_data)
        if faults is not None:
            self.ssd.flash.attach_faults(FaultInjector(faults))
        self.link = Link(profile.link_bandwidth, profile.link_command_overhead)
        self.cpu = HostCpu()
        self.engine = HostIoEngine(self.ssd, self.link, self.cpu,
                                   queue_depth=queue_depth)
        #: dataset -> tile shape -> stored copy
        self._copies: Dict[str, Dict[Tuple[int, ...], _TiledCopy]] = {}
        self._next_page = 0
        self._init_tier(cache)

    def _probed_layers(self) -> tuple:
        return (self.cpu, self.link, self.engine, self.ssd.flash, self.ssd.gc,
                self.tier)

    # ------------------------------------------------------------------
    def _execute_ingest(self, dataset: str, dims: Sequence[int],
                        element_size: int,
                        data: Optional[np.ndarray] = None,
                        start_time: float = 0.0,
                        tile: Optional[Sequence[int]] = None) -> SystemOpResult:
        """Store one tile-major copy of a dataset for tile shape
        ``tile`` (defaults to the whole dataset as a single tile).
        Call again with a different ``tile`` to add another copy."""
        dims = tuple(int(d) for d in dims)
        tile_shape = tuple(int(t) for t in (tile if tile is not None else dims))
        if len(tile_shape) != len(dims):
            raise ValueError("tile rank must match dataset rank")
        for t, d in zip(tile_shape, dims):
            if t < 1 or d % t != 0:
                raise ValueError(
                    f"oracle tiles must evenly divide the dataset: {tile_shape}"
                    f" vs {dims}")
        grid = tuple(d // t for d, t in zip(dims, tile_shape))
        tile_bytes = element_size
        for t in tile_shape:
            tile_bytes *= t
        tile_pages = -(-tile_bytes // self.page_size)
        tiles = 1
        for g in grid:
            tiles *= g
        copy = _TiledCopy(start_page=self._next_page, dims=dims,
                          element_size=element_size, tile=tile_shape,
                          grid=grid, tile_pages=tile_pages)
        self._next_page += tiles * tile_pages
        if self._next_page > self.ssd.logical_pages:
            raise ValueError("oracle copies exceed device logical capacity")
        self._copies.setdefault(dataset, {})[tile_shape] = copy

        requests: List[IoRequest] = []
        for index in range(tiles):
            payload = None
            if data is not None and self.store_data:
                chunk = self._extract_tile(np.asarray(data), copy, index)
                payload = [chunk[i * self.page_size:(i + 1) * self.page_size]
                           for i in range(tile_pages)]
            first = copy.start_page + index * tile_pages
            requests.extend(self._split(first, tile_pages, payload))
        result = self.engine.run_writes(requests, start_time)
        return SystemOpResult(start_time=start_time, end_time=result.end_time,
                              useful_bytes=tiles * tile_bytes,
                              fetched_bytes=result.fetched_bytes,
                              requests=len(requests), stats=result.stats)

    # ------------------------------------------------------------------
    def _execute_read(self, dataset: str, origin: Sequence[int],
                      extents: Sequence[int], start_time: float = 0.0,
                      with_data: bool = False,
                      dtype: Optional[np.dtype] = None) -> SystemOpResult:
        copy = self._match(dataset, extents)
        index = self._tile_index(copy, origin)
        first = copy.start_page + index * copy.tile_pages
        requests = self._split(first, copy.tile_pages, None)
        # A software-library oracle still reads through the page cache:
        # one contiguous copy into the user buffer per request. This is
        # why the paper finds the oracle "just about the same as the
        # software NDS" (§7.2) despite its perfect layout.
        for request in requests:
            request.placement_chunk = 0
        # DRAM tier: resident tile runs never reach the engine
        tier = self.tier
        tier_end = start_time
        if tier is not None:
            if with_data and self.store_data:
                raise NotImplementedError(
                    "functional reads with the DRAM tier enabled are not "
                    "supported on the linear systems; use cache=None for "
                    "data verification")
            remaining = []
            for request in requests:
                key = ("lpn", request.lpns[0], request.lpns[-1])
                if tier.lookup(key) is not None:
                    tier_end = max(tier_end, self.cpu.copy(
                        request.useful_bytes, start_time, 0,
                        label="cache_copy"))
                    continue
                remaining.append(request)
            requests = remaining
        read_start = start_time
        if tier is not None:
            for request in requests:
                read_start = self._flush_overlapping_lpns(
                    request.lpns[0], request.lpns[-1], read_start)
        run = self.engine.run_reads(requests, start_time
                                    if tier is None else read_start,
                                    with_data=with_data and self.store_data)
        if tier is not None:
            end = run.end_time
            for request in requests:
                end = tier.insert(
                    ("lpn", request.lpns[0], request.lpns[-1]),
                    len(request.lpns) * self.page_size, end,
                    payload=request)
            run.end_time = max(run.end_time, end, tier_end)
        data = None
        if with_data and self.store_data:
            pages = [p for group in run.data if group for p in group]
            blob = np.concatenate(pages)
            tile_bytes = copy.element_size
            for t in copy.tile:
                tile_bytes *= t
            data = blob[:tile_bytes].reshape(
                tuple(copy.tile) + (copy.element_size,))
            if dtype is not None:
                data = np.ascontiguousarray(data).reshape(-1).view(
                    dtype).reshape(tuple(copy.tile))
        useful = copy.element_size
        for t in copy.tile:
            useful *= t
        return SystemOpResult(start_time=start_time, end_time=run.end_time,
                              useful_bytes=useful,
                              fetched_bytes=run.fetched_bytes,
                              requests=len(requests), data=data,
                              stats=run.stats)

    def _execute_write(self, dataset: str, origin: Sequence[int],
                       extents: Sequence[int],
                       data: Optional[np.ndarray] = None,
                       start_time: float = 0.0) -> SystemOpResult:
        copy = self._match(dataset, extents)
        index = self._tile_index(copy, origin)
        first = copy.start_page + index * copy.tile_pages
        payload = None
        if data is not None and self.store_data:
            raw = np.ascontiguousarray(np.asarray(data)).view(np.uint8).ravel()
            payload = [raw[i * self.page_size:(i + 1) * self.page_size]
                       for i in range(copy.tile_pages)]
        requests = self._split(first, copy.tile_pages, payload)
        tier = self.tier
        if tier is not None and tier.config.write_back:
            end = start_time
            for request in requests:
                done = self.cpu.copy(request.useful_bytes, start_time, 0,
                                     label="cache_copy")
                done = self._flush_overlapping_lpns(
                    request.lpns[0], request.lpns[-1], done,
                    invalidate=True)
                end = max(end, tier.insert(
                    ("lpn", request.lpns[0], request.lpns[-1]),
                    len(request.lpns) * self.page_size, done,
                    payload=request, dirty=True))
            useful = copy.element_size
            for t in copy.tile:
                useful *= t
            return SystemOpResult(start_time=start_time, end_time=end,
                                  useful_bytes=useful, fetched_bytes=0,
                                  requests=len(requests))
        if tier is not None:
            for request in requests:
                self._invalidate_overlapping_lpns(request.lpns[0],
                                                  request.lpns[-1])
        run = self.engine.run_writes(requests, start_time)
        useful = copy.element_size
        for t in copy.tile:
            useful *= t
        return SystemOpResult(start_time=start_time, end_time=run.end_time,
                              useful_bytes=useful,
                              fetched_bytes=run.fetched_bytes,
                              requests=len(requests), stats=run.stats)

    def reset_time(self) -> None:
        if self.cluster is not None:
            self.cluster.reset_time()
            self._reset_runtime()
            return
        self.engine.reset_time()
        self._reset_runtime()

    # ------------------------------------------------------------------
    def _cluster_align(self, dims: Sequence[int], element_size: int,
                       params: dict) -> int:
        """Extent boundaries land on stored-tile rows so every aligned
        tile read stays within one device-local copy."""
        tile = params.get("tile")
        return int(tile[0]) if tile else int(dims[0])

    def _cluster_ingest_key(self, dataset: str, dims: Tuple[int, ...],
                            params: dict):
        """One layout per (dataset, tile shape) — the oracle stores a
        separate tile-major copy for every consumer shape."""
        tile = params.get("tile")
        return (dataset, tuple(int(t) for t in (tile or dims)))

    def _cluster_read_key(self, dataset: str, extents: Tuple[int, ...]):
        return (dataset, tuple(int(e) for e in extents))

    def stored_bytes(self) -> int:
        """Total device bytes consumed by all copies (the oracle's
        duplication cost)."""
        return self._next_page * self.page_size

    # ------------------------------------------------------------------
    def _match(self, dataset: str, extents: Sequence[int]) -> _TiledCopy:
        copies = self._copies.get(dataset)
        if not copies:
            raise KeyError(f"unknown dataset {dataset!r}")
        copy = copies.get(tuple(int(e) for e in extents))
        if copy is None:
            raise KeyError(
                f"oracle has no copy of {dataset!r} for tile {tuple(extents)};"
                f" available: {sorted(copies)}")
        return copy

    @staticmethod
    def _tile_index(copy: _TiledCopy, origin: Sequence[int]) -> int:
        index = 0
        for o, t, g in zip(origin, copy.tile, copy.grid):
            if o % t != 0:
                raise ValueError(
                    f"oracle reads must be tile aligned: origin {origin}")
            index = index * g + o // t
        return index

    def _split(self, first_page: int, pages: int,
               payload: Optional[List[np.ndarray]]) -> List[IoRequest]:
        per = max(1, self.max_request_bytes // self.page_size)
        requests = []
        for offset in range(0, pages, per):
            count = min(per, pages - offset)
            chunk_payload = None
            if payload is not None:
                chunk_payload = payload[offset:offset + count]
            requests.append(IoRequest(
                lpns=list(range(first_page + offset,
                                first_page + offset + count)),
                useful_bytes=count * self.page_size,
                placement_chunk=None, payload=chunk_payload))
        return requests

    def _extract_tile(self, data: np.ndarray, copy: _TiledCopy,
                      index: int) -> np.ndarray:
        coords = []
        remaining = index
        for g in reversed(copy.grid):
            coords.append(remaining % g)
            remaining //= g
        coords.reverse()
        slicer = tuple(slice(c * t, (c + 1) * t)
                       for c, t in zip(coords, copy.tile))
        tile = np.ascontiguousarray(data[slicer]).view(np.uint8).ravel()
        padded = np.zeros(copy.tile_pages * self.page_size, dtype=np.uint8)
        padded[:tile.size] = tile
        return padded
