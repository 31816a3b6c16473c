"""The baseline architecture: conventional SSD + host marshalling
(paper Fig. 7(a)).

Datasets are serialized row-major (or column-major) into the linear LBA
space; the FTL stripes consecutive pages over channels. Fetching a tile
therefore requires one I/O request per contiguous run (typically per
tile row, [P1]); each request is small ([P2]); the runs of
column-crossing tiles concentrate on a subset of channels ([P3]); and
the host CPU must place every run into the tile buffer (marshalling).
Tiles that *are* contiguous in the serialized layout (full-width reads)
coalesce into large, DMA-direct requests — the baseline's best case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.core.translator import check_region
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultConfig
from repro.ftl.ssd import BaselineSSD
from repro.host.cpu import HostCpu
from repro.host.io_engine import HostIoEngine, IoRun
from repro.interconnect.link import Link
from repro.nvm.profiles import DeviceProfile
from repro.systems.base import StorageSystem, SystemOpResult, row_runs

__all__ = ["BaselineSystem", "LinearSystem"]

#: request size at which the interconnect saturates (§2.1 [P2])
DEFAULT_MAX_REQUEST_BYTES = 2 * 2**20


@dataclass
class _Dataset:
    start_page: int
    dims: Tuple[int, ...]
    element_size: int
    layout: str  # "row" or "col"

    @property
    def layout_dims(self) -> Tuple[int, ...]:
        if self.layout == "col" and len(self.dims) == 2:
            return (self.dims[1], self.dims[0])
        return self.dims

    def to_layout(self, origin: Sequence[int],
                  extents: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        if self.layout == "col" and len(self.dims) == 2:
            return (origin[1], origin[0]), (extents[1], extents[0])
        return tuple(origin), tuple(extents)

    def raw(self, data: np.ndarray) -> np.ndarray:
        """``data`` as bytes in the stored (layout) order."""
        array = np.asarray(data)
        if self.layout == "col" and len(self.dims) == 2:
            array = array.T
        return np.ascontiguousarray(array).view(np.uint8).ravel()


class LinearSystem(StorageSystem):
    """Shared shell of the linear (LPN-addressed) systems: a
    conventional SSD reached through the host I/O engine, and the
    DRAM-tier glue over its LPN runs.

    Requests reach the host I/O engine as one :class:`IoRun` per op.
    Tier entries are whole requests keyed ``("lpn", first, last)``; a
    dirty entry's payload is its request as a one-request run, so a
    write-back flush replays the exact request through the engine."""

    def _init_device(self, profile: DeviceProfile, store_data: bool,
                     queue_depth: int, max_request_bytes: int,
                     cpu: Optional[HostCpu], faults, cache, devices: int,
                     extents_per_device: int, rebalance,
                     factory) -> bool:
        """Build the SSD, link, host CPU and I/O engine, or a device
        pool of ``factory``-built members when more than one device is
        asked for. Returns True when pooled (the caller then builds no
        device parts of its own)."""
        self.profile = profile
        self.store_data = store_data
        self.max_request_bytes = max_request_bytes
        self.page_size = profile.geometry.page_size
        if self._init_cluster(devices, faults, rebalance,
                              extents_per_device, factory):
            return True
        self.ssd = BaselineSSD(profile, store_data=store_data)
        if faults is not None:
            self.ssd.flash.attach_faults(FaultInjector(faults))
        self.link = Link(profile.link_bandwidth, profile.link_command_overhead)
        self.cpu = cpu if cpu is not None else HostCpu()
        self.engine = HostIoEngine(self.ssd, self.link, self.cpu,
                                   queue_depth=queue_depth)
        self._next_page = 0
        self._init_tier(cache)
        return False

    def _probed_layers(self) -> tuple:
        return (self.cpu, self.link, self.engine, self.ssd.flash, self.ssd.gc,
                self.tier)

    def reset_time(self) -> None:
        if self.cluster is not None:
            self.cluster.reset_time()
        else:
            self.engine.reset_time()
        self._reset_runtime()

    def _split(self, first_page: int, pages: int,
               payload: Optional[List[np.ndarray]],
               chunk: Optional[int] = None,
               run: Optional[IoRun] = None) -> IoRun:
        """Append ``pages`` consecutive pages from ``first_page`` to
        ``run`` (a new one when None) as saturating requests with
        placement ``chunk``; ``payload``: one array per page, or None."""
        if run is None:
            run = IoRun(payloads=None if payload is None else [])
        per = max(1, self.max_request_bytes // self.page_size)
        for offset in range(0, pages, per):
            count = min(per, pages - offset)
            run.append(first_page + offset, count, count * self.page_size,
                       chunk, None if payload is None
                       else payload[offset:offset + count])
        return run

    # ------------------------------------------------------------------
    def _run_reads(self, run: IoRun, start_time: float, with_data: bool):
        """Serve a read run, through the DRAM tier when one is attached.
        Returns the engine's run result and the run that reached the
        device."""
        tier = self.tier
        functional = with_data and self.store_data
        if tier is None:
            return self.engine.run_reads(run, start_time,
                                         with_data=functional), run
        if functional:
            raise NotImplementedError(
                "functional reads with the DRAM tier enabled are not "
                "supported on the linear systems; use cache=None for "
                "data verification")
        # whole-request hits never reach the engine — one contiguous
        # host copy out of the tier per resident run
        tier_end = start_time
        remaining = IoRun()
        for first, count, useful, chunk in zip(run.firsts, run.counts,
                                               run.useful, run.chunks):
            if tier.lookup(("lpn", first, first + count - 1)) is not None:
                tier_end = max(tier_end, self.cpu.copy(
                    useful, start_time, 0, label="cache_copy"))
                continue
            remaining.append(first, count, useful, chunk)
        # coherence: buffered dirty runs overlapping the misses must
        # reach flash before the device serves them
        read_start = start_time
        for first, count in zip(remaining.firsts, remaining.counts):
            read_start = self._flush_overlapping_lpns(
                first, first + count - 1, read_start)
        result = self.engine.run_reads(remaining, read_start,
                                       with_data=False)
        end = result.end_time
        # a clean run is never replayed, so it keeps no payload
        for first, count in zip(remaining.firsts, remaining.counts):
            end = tier.insert(("lpn", first, first + count - 1),
                              count * self.page_size, end)
        result.end_time = max(result.end_time, end, tier_end)
        return result, remaining

    def _run_writes(self, run: IoRun, start_time: float,
                    useful_bytes: int) -> SystemOpResult:
        """Serve a write run: absorbed into the DRAM tier under
        write-back, else through the engine (dropping now-stale cached
        copies of the overwritten runs under write-through)."""
        tier = self.tier
        if tier is not None and tier.config.write_back:
            return SystemOpResult(
                start_time=start_time,
                end_time=self._absorb_writes(run, start_time),
                useful_bytes=useful_bytes, fetched_bytes=0,
                requests=len(run))
        if tier is not None:
            for first, count in zip(run.firsts, run.counts):
                self._flush_overlapping_lpns(first, first + count - 1,
                                             start_time, invalidate=True)
        result = self.engine.run_writes(run, start_time)
        return SystemOpResult(start_time=start_time, end_time=result.end_time,
                              useful_bytes=useful_bytes,
                              fetched_bytes=result.fetched_bytes,
                              requests=len(run), stats=result.stats)

    def _absorb_writes(self, run: IoRun, start_time: float) -> float:
        """Write-back: the requests never reach the engine now — one
        host copy into the DRAM tier each; the device write is paid at
        eviction, dirty-bound or fence. Returns the completion time."""
        tier = self.tier
        end = start_time
        for index, (first, count, useful) in enumerate(
                zip(run.firsts, run.counts, run.useful)):
            last = first + count - 1
            done = self.cpu.copy(useful, start_time, 0, label="cache_copy")
            done = self._flush_overlapping_lpns(first, last, done,
                                                invalidate=True)
            end = max(end, tier.insert(
                ("lpn", first, last), count * self.page_size, done,
                payload=run.request(index), dirty=True))
        return end

    def _flush_cache_entry(self, entry, now: float) -> float:
        """Write one buffered dirty run back through the I/O engine, so
        a deferred flush costs exactly what the write would have."""
        return self.engine.run_writes(entry.payload, now).end_time

    def _flush_overlapping_lpns(self, first: int, last: int, now: float,
                                invalidate: bool = False) -> float:
        """Flush buffered dirty runs overlapping [first, last]; with
        ``invalidate`` the caller is overwriting the range, so exact
        covers are dropped unflushed and partial overlaps are flushed
        (they hold bytes outside the overwritten range) then dropped."""
        tier = self.tier
        for key in list(tier.entries):
            if not (key[1] <= last and first <= key[2]):
                continue
            entry = tier.get(key)
            if entry is None:
                continue
            covered = first <= key[1] and key[2] <= last
            if entry.dirty and not (invalidate and covered):
                now = tier.flush_entry(key, now)
            if invalidate:
                tier.invalidate(key)
        return now


class BaselineSystem(LinearSystem):
    """Conventional SSD system with host-side data restructuring."""

    name = "baseline"

    def __init__(self, profile: DeviceProfile, store_data: bool = False,
                 queue_depth: int = 32,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
                 cpu: Optional[HostCpu] = None,
                 faults: Optional["FaultConfig"] = None,
                 devices: int = 1,
                 extents_per_device: int = 1, rebalance=None,
                 cache: Optional[CacheConfig] = None) -> None:
        if self._init_device(
                profile, store_data, queue_depth, max_request_bytes, cpu,
                faults, cache, devices, extents_per_device, rebalance,
                lambda i, f: BaselineSystem(
                    profile, store_data=store_data, queue_depth=queue_depth,
                    max_request_bytes=max_request_bytes, faults=f,
                    cache=cache)):
            return
        self._datasets: Dict[str, _Dataset] = {}

    # ------------------------------------------------------------------
    def _execute_ingest(self, dataset: str, dims: Sequence[int],
                        element_size: int,
                        data: Optional[np.ndarray] = None,
                        start_time: float = 0.0,
                        layout: str = "row") -> SystemOpResult:
        if dataset in self._datasets:
            raise ValueError(f"dataset {dataset!r} already ingested")
        if layout not in ("row", "col"):
            raise ValueError("layout must be 'row' or 'col'")
        dims = tuple(int(d) for d in dims)
        total_bytes = element_size * math.prod(dims)
        pages = -(-total_bytes // self.page_size)
        record = _Dataset(start_page=self._next_page, dims=dims,
                          element_size=element_size, layout=layout)
        self._next_page += pages
        if self._next_page > self.ssd.logical_pages:
            raise ValueError("dataset exceeds device logical capacity")
        self._datasets[dataset] = record

        payload = None
        if data is not None and self.store_data:
            raw = record.raw(data)
            payload = [raw[page * self.page_size:(page + 1) * self.page_size]
                       for page in range(pages)]
        run = self._split(record.start_page, pages, payload)
        result = self.engine.run_writes(run, start_time)
        return SystemOpResult(start_time=start_time, end_time=result.end_time,
                              useful_bytes=total_bytes,
                              fetched_bytes=result.fetched_bytes,
                              requests=len(run), stats=result.stats)

    # ------------------------------------------------------------------
    def _execute_read(self, dataset: str, origin: Sequence[int],
                      extents: Sequence[int], start_time: float = 0.0,
                      with_data: bool = False,
                      dtype: Optional[np.dtype] = None) -> SystemOpResult:
        record, l_extents, starts, byte_len = self._tile(dataset, origin,
                                                         extents)
        elem = record.element_size
        page = self.page_size
        max_bytes = self.max_request_bytes
        if byte_len <= max_bytes:
            # One request per run; the host CPU must place the run
            # into its position in the tile buffer (marshalling).
            useful = [byte_len] * len(starts)
            chunk = 0
        else:
            # Contiguous coalesced ranges: split into saturating
            # requests, DMA-placed directly (no marshalling copy).
            offsets = range(0, byte_len, max_bytes)
            useful = [min(max_bytes, byte_len - offset)
                      for offset in offsets] * len(starts)
            starts = [start + offset for start in starts
                      for offset in offsets]
            chunk = None
        base = record.start_page
        run = IoRun([base + start // page for start in starts],
                    [(start + size - 1) // page - start // page + 1
                     for start, size in zip(starts, useful)],
                    useful, [chunk] * len(starts))
        result, run = self._run_reads(run, start_time, with_data)
        data = None
        if with_data and self.store_data:
            data = self._assemble(record, l_extents, starts, useful,
                                  result.data)
            if record.layout == "col" and len(record.dims) == 2:
                data = np.ascontiguousarray(
                    data.reshape(l_extents[0], l_extents[1], elem)
                    .swapaxes(0, 1))
            else:
                data = data.reshape(tuple(l_extents) + (elem,))
            if dtype is not None:
                data = data.reshape(-1).view(dtype).reshape(tuple(extents))
        return SystemOpResult(start_time=start_time,
                              end_time=result.end_time,
                              useful_bytes=elem * math.prod(extents),
                              fetched_bytes=result.fetched_bytes,
                              requests=len(run), data=data,
                              stats=result.stats)

    # ------------------------------------------------------------------
    def _execute_write(self, dataset: str, origin: Sequence[int],
                       extents: Sequence[int],
                       data: Optional[np.ndarray] = None,
                       start_time: float = 0.0) -> SystemOpResult:
        record, _, starts, byte_len = self._tile(dataset, origin, extents)
        page = self.page_size
        count = max(1, -(-byte_len // page))
        payloads = None
        if data is not None and self.store_data:
            if byte_len % page or any(start % page for start in starts):
                raise NotImplementedError(
                    "functional baseline writes must be page aligned; "
                    "use the NDS systems for arbitrary functional tiles")
            raw = record.raw(data)
            payloads = [[raw[offset + i * page:offset + (i + 1) * page]
                         for i in range(count)]
                        for offset in range(0, len(starts) * byte_len,
                                            byte_len)]
        gather_chunk = 0 if byte_len <= self.max_request_bytes else None
        run = IoRun([record.start_page + start // page for start in starts],
                    [count] * len(starts), [byte_len] * len(starts),
                    [gather_chunk] * len(starts), payloads)
        return self._run_writes(run, start_time,
                                record.element_size * math.prod(extents))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _dataset(self, dataset: str) -> _Dataset:
        record = self._datasets.get(dataset)
        if record is None:
            raise KeyError(f"unknown dataset {dataset!r}")
        return record

    def _tile(self, dataset: str, origin: Sequence[int],
              extents: Sequence[int]):
        """A tile's dataset record, its extents in layout order, the
        first byte of each of its row runs and their one byte length."""
        record = self._dataset(dataset)
        check_region(origin, extents, record.dims)
        l_origin, l_extents = record.to_layout(origin, extents)
        runs = row_runs(record.layout_dims, l_origin, l_extents)
        elem = record.element_size
        starts = [linear * elem for linear, _ in runs]
        return record, l_extents, starts, runs[0][1] * elem if runs else 0

    def _assemble(self, record: _Dataset, l_extents: Sequence[int],
                  starts: List[int], lengths: List[int],
                  pages_per_request: List[Optional[List[np.ndarray]]],
                  ) -> np.ndarray:
        """The tile's bytes in layout order: request ``i`` read
        ``lengths[i]`` bytes from dataset byte ``starts[i]``."""
        out = np.zeros(record.element_size * math.prod(l_extents),
                       dtype=np.uint8)
        cursor = 0
        for byte_start, byte_len, pages in zip(starts, lengths,
                                               pages_per_request):
            if pages is None:
                cursor += byte_len
                continue
            blob = np.concatenate(pages)
            inner = byte_start % self.page_size
            out[cursor:cursor + byte_len] = blob[inner:inner + byte_len]
            cursor += byte_len
        return out
