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

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.core.translator import check_region
from repro.faults.model import FaultConfig
from repro.host.io_engine import IoRun
from repro.nvm.profiles import DeviceProfile
from repro.systems.base import SystemOpResult
from repro.systems.baseline import DEFAULT_MAX_REQUEST_BYTES, LinearSystem

__all__ = ["OracleSystem"]


@dataclass
class _TiledCopy:
    start_page: int
    dims: Tuple[int, ...]
    element_size: int
    tile: Tuple[int, ...]
    grid: Tuple[int, ...]
    tile_pages: int

    @property
    def tile_bytes(self) -> int:
        return self.element_size * math.prod(self.tile)


class OracleSystem(LinearSystem):
    """Best-possible software layout: tile-major storage per consumer."""

    name = "software-oracle"

    def __init__(self, profile: DeviceProfile, store_data: bool = False,
                 queue_depth: int = 32,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
                 faults: Optional[FaultConfig] = None,
                 devices: int = 1,
                 extents_per_device: int = 1, rebalance=None,
                 cache: Optional[CacheConfig] = None) -> None:
        if self._init_device(
                profile, store_data, queue_depth, max_request_bytes, None,
                faults, cache, devices, extents_per_device, rebalance,
                lambda i, f: OracleSystem(
                    profile, store_data=store_data, queue_depth=queue_depth,
                    max_request_bytes=max_request_bytes, faults=f,
                    cache=cache)):
            return
        #: dataset -> tile shape -> stored copy
        self._copies: Dict[str, Dict[Tuple[int, ...], _TiledCopy]] = {}

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
        tile_bytes = element_size * math.prod(tile_shape)
        tile_pages = -(-tile_bytes // self.page_size)
        tiles = math.prod(grid)
        copy = _TiledCopy(start_page=self._next_page, dims=dims,
                          element_size=element_size, tile=tile_shape,
                          grid=grid, tile_pages=tile_pages)
        self._next_page += tiles * tile_pages
        if self._next_page > self.ssd.logical_pages:
            raise ValueError("oracle copies exceed device logical capacity")
        self._copies.setdefault(dataset, {})[tile_shape] = copy

        functional = data is not None and self.store_data
        run = IoRun(payloads=[] if functional else None)
        for index in range(tiles):
            payload = None
            if functional:
                chunk = self._extract_tile(np.asarray(data), copy, index)
                payload = [chunk[i * self.page_size:(i + 1) * self.page_size]
                           for i in range(tile_pages)]
            first = copy.start_page + index * tile_pages
            self._split(first, tile_pages, payload, run=run)
        result = self.engine.run_writes(run, start_time)
        return SystemOpResult(start_time=start_time, end_time=result.end_time,
                              useful_bytes=tiles * tile_bytes,
                              fetched_bytes=result.fetched_bytes,
                              requests=len(run), stats=result.stats)

    # ------------------------------------------------------------------
    def _execute_read(self, dataset: str, origin: Sequence[int],
                      extents: Sequence[int], start_time: float = 0.0,
                      with_data: bool = False,
                      dtype: Optional[np.dtype] = None) -> SystemOpResult:
        copy, index = self._tile(dataset, origin, extents)
        first = copy.start_page + index * copy.tile_pages
        # A software-library oracle still reads through the page cache:
        # one contiguous copy into the user buffer per request. This is
        # why the paper finds the oracle "just about the same as the
        # software NDS" (§7.2) despite its perfect layout.
        run = self._split(first, copy.tile_pages, None, chunk=0)
        result, run = self._run_reads(run, start_time, with_data)
        data = None
        if with_data and self.store_data:
            pages = [p for group in result.data if group for p in group]
            blob = np.concatenate(pages)
            data = blob[:copy.tile_bytes].reshape(
                tuple(copy.tile) + (copy.element_size,))
            if dtype is not None:
                data = np.ascontiguousarray(data).reshape(-1).view(
                    dtype).reshape(tuple(copy.tile))
        return SystemOpResult(start_time=start_time, end_time=result.end_time,
                              useful_bytes=copy.tile_bytes,
                              fetched_bytes=result.fetched_bytes,
                              requests=len(run), data=data,
                              stats=result.stats)

    def _execute_write(self, dataset: str, origin: Sequence[int],
                       extents: Sequence[int],
                       data: Optional[np.ndarray] = None,
                       start_time: float = 0.0) -> SystemOpResult:
        copy, index = self._tile(dataset, origin, extents)
        first = copy.start_page + index * copy.tile_pages
        payload = None
        if data is not None and self.store_data:
            raw = np.ascontiguousarray(np.asarray(data)).view(np.uint8).ravel()
            payload = [raw[i * self.page_size:(i + 1) * self.page_size]
                       for i in range(copy.tile_pages)]
        run = self._split(first, copy.tile_pages, payload)
        return self._run_writes(run, start_time, copy.tile_bytes)

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
    def _tile(self, dataset: str, origin: Sequence[int],
              extents: Sequence[int]) -> Tuple[_TiledCopy, int]:
        """The stored copy for a tile's shape and the tile's index in
        it; the tile must lie inside the dataset, on the copy's grid."""
        copies = self._copies.get(dataset)
        if not copies:
            raise KeyError(f"unknown dataset {dataset!r}")
        # every copy of a dataset has its dims
        check_region(origin, extents, next(iter(copies.values())).dims)
        copy = copies.get(tuple(int(e) for e in extents))
        if copy is None:
            raise KeyError(
                f"oracle has no copy of {dataset!r} for tile {tuple(extents)};"
                f" available: {sorted(copies)}")
        index = 0
        for o, t, g in zip(origin, copy.tile, copy.grid):
            if o % t != 0:
                raise ValueError(
                    f"oracle reads must be tile aligned: origin {origin}")
            index = index * g + o // t
        return copy, index

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
