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


class LinearSystem(StorageSystem):
    """Shared shell of the linear (LPN-addressed) systems: a
    conventional SSD reached through the host I/O engine, and the
    DRAM-tier glue over its LPN runs.

    Tier entries are whole request runs keyed ``("lpn", first, last)``
    with the originating :class:`IoRequest` as payload, so a write-back
    flush replays the exact request through the host I/O engine."""

    def _init_device(self, profile: DeviceProfile, store_data: bool,
                     queue_depth: int, max_request_bytes: int,
                     cpu: Optional[HostCpu], faults, cache, devices: int,
                     pool, extents_per_device: int, rebalance,
                     factory) -> bool:
        """Build the SSD, link, host CPU and I/O engine, or a device
        pool of ``factory``-built members when more than one device is
        asked for. Returns True when pooled (the caller then builds no
        device parts of its own)."""
        self.profile = profile
        self.store_data = store_data
        self.max_request_bytes = max_request_bytes
        self.page_size = profile.geometry.page_size
        if self._init_cluster(devices, pool, faults, rebalance,
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
               payload: Optional[List[np.ndarray]]) -> List[IoRequest]:
        """Cut ``pages`` consecutive pages from ``first_page`` into
        saturating DMA-direct requests (``payload``: one array per page,
        None timing-only)."""
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

    # ------------------------------------------------------------------
    def _run_reads(self, requests: List[IoRequest], start_time: float,
                   with_data: bool):
        """Serve read requests, through the DRAM tier when one is
        attached. Returns the engine's run result and the requests that
        reached the device."""
        tier = self.tier
        functional = with_data and self.store_data
        if tier is None:
            return (self.engine.run_reads(requests, start_time,
                                          with_data=functional), requests)
        if functional:
            raise NotImplementedError(
                "functional reads with the DRAM tier enabled are not "
                "supported on the linear systems; use cache=None for "
                "data verification")
        # whole-request hits never reach the engine — one contiguous
        # host copy out of the tier per resident run
        tier_end = start_time
        remaining = []
        for request in requests:
            key = ("lpn", request.lpns[0], request.lpns[-1])
            if tier.lookup(key) is not None:
                tier_end = max(tier_end, self.cpu.copy(
                    request.useful_bytes, start_time, 0,
                    label="cache_copy"))
                continue
            remaining.append(request)
        # coherence: buffered dirty runs overlapping the misses must
        # reach flash before the device serves them
        read_start = start_time
        for request in remaining:
            read_start = self._flush_overlapping_lpns(
                request.lpns[0], request.lpns[-1], read_start)
        run = self.engine.run_reads(remaining, read_start, with_data=False)
        end = run.end_time
        for request in remaining:
            end = tier.insert(("lpn", request.lpns[0], request.lpns[-1]),
                              len(request.lpns) * self.page_size, end,
                              payload=request)
        run.end_time = max(run.end_time, end, tier_end)
        return run, remaining

    def _run_writes(self, requests: List[IoRequest], start_time: float,
                    useful_bytes: int) -> SystemOpResult:
        """Serve write requests: absorbed into the DRAM tier under
        write-back, else through the engine (dropping now-stale cached
        copies of the overwritten runs under write-through)."""
        tier = self.tier
        if tier is not None and tier.config.write_back:
            return SystemOpResult(
                start_time=start_time,
                end_time=self._absorb_writes(requests, start_time),
                useful_bytes=useful_bytes, fetched_bytes=0,
                requests=len(requests))
        if tier is not None:
            for request in requests:
                self._invalidate_overlapping_lpns(request.lpns[0],
                                                  request.lpns[-1])
        run = self.engine.run_writes(requests, start_time)
        return SystemOpResult(start_time=start_time, end_time=run.end_time,
                              useful_bytes=useful_bytes,
                              fetched_bytes=run.fetched_bytes,
                              requests=len(requests), stats=run.stats)

    def _absorb_writes(self, requests: List[IoRequest],
                       start_time: float) -> float:
        """Write-back: the runs never reach the engine now — one host
        copy into the DRAM tier each; the device write is paid at
        eviction, dirty-bound or fence. Returns the completion time."""
        tier = self.tier
        end = start_time
        for request in requests:
            done = self.cpu.copy(request.useful_bytes, start_time, 0,
                                 label="cache_copy")
            done = self._flush_overlapping_lpns(
                request.lpns[0], request.lpns[-1], done, invalidate=True)
            end = max(end, tier.insert(
                ("lpn", request.lpns[0], request.lpns[-1]),
                len(request.lpns) * self.page_size, done,
                payload=request, dirty=True))
        return end

    def _flush_cache_entry(self, entry, now: float) -> float:
        """Write one buffered dirty run back through the I/O engine, so
        a deferred flush costs exactly what the write would have."""
        return self.engine.run_writes([entry.payload], now).end_time

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

    def _invalidate_overlapping_lpns(self, first: int, last: int) -> None:
        tier = self.tier
        for key in list(tier.entries):
            if key[1] <= last and first <= key[2]:
                tier.invalidate(key)


class BaselineSystem(LinearSystem):
    """Conventional SSD system with host-side data restructuring."""

    name = "baseline"

    def __init__(self, profile: DeviceProfile, store_data: bool = False,
                 queue_depth: int = 32,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
                 cpu: Optional[HostCpu] = None,
                 faults: Optional["FaultConfig"] = None,
                 devices: int = 1, pool=None,
                 extents_per_device: int = 1, rebalance=None,
                 cache: Optional[CacheConfig] = None) -> None:
        if self._init_device(
                profile, store_data, queue_depth, max_request_bytes, cpu,
                faults, cache, devices, pool, extents_per_device, rebalance,
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
        total_bytes = element_size
        for extent in dims:
            total_bytes *= extent
        pages = -(-total_bytes // self.page_size)
        record = _Dataset(start_page=self._next_page, dims=dims,
                          element_size=element_size, layout=layout)
        self._next_page += pages
        if self._next_page > self.ssd.logical_pages:
            raise ValueError("dataset exceeds device logical capacity")
        self._datasets[dataset] = record

        raw = None
        if data is not None and self.store_data:
            array = np.asarray(data)
            if layout == "col" and len(dims) == 2:
                array = array.T
            raw = np.ascontiguousarray(array).view(np.uint8).ravel()
        payload = None
        if raw is not None:
            payload = [raw[page * self.page_size:(page + 1) * self.page_size]
                       for page in range(pages)]
        requests = self._split(record.start_page, pages, payload)
        result = self.engine.run_writes(requests, start_time)
        return SystemOpResult(start_time=start_time, end_time=result.end_time,
                              useful_bytes=total_bytes,
                              fetched_bytes=result.fetched_bytes,
                              requests=len(requests), stats=result.stats)

    # ------------------------------------------------------------------
    def _execute_read(self, dataset: str, origin: Sequence[int],
                      extents: Sequence[int], start_time: float = 0.0,
                      with_data: bool = False,
                      dtype: Optional[np.dtype] = None) -> SystemOpResult:
        record = self._dataset(dataset)
        l_origin, l_extents = record.to_layout(origin, extents)
        runs = row_runs(record.layout_dims, l_origin, l_extents)
        elem = record.element_size
        requests: List[IoRequest] = []
        spans: List[Tuple[int, int]] = []  # (byte_start, byte_len) per request
        for linear, length in runs:
            byte_start = linear * elem
            byte_len = length * elem
            if byte_len > self.max_request_bytes:
                # Contiguous coalesced range: split into saturating
                # requests, DMA-placed directly (no marshalling copy).
                offset = 0
                while offset < byte_len:
                    chunk = min(self.max_request_bytes, byte_len - offset)
                    requests.append(self._read_request(
                        record, byte_start + offset, chunk,
                        placement_chunk=None))
                    spans.append((byte_start + offset, chunk))
                    offset += chunk
            else:
                # One request per run; the host CPU must place the run
                # into its position in the tile buffer (marshalling).
                requests.append(self._read_request(
                    record, byte_start, byte_len, placement_chunk=0))
                spans.append((byte_start, byte_len))
        run_result, requests = self._run_reads(requests, start_time,
                                               with_data)
        data = None
        if with_data and self.store_data:
            data = self._assemble(record, l_extents, spans, run_result.data)
            if record.layout == "col" and len(record.dims) == 2:
                data = np.ascontiguousarray(
                    data.reshape(l_extents[0], l_extents[1], elem)
                    .swapaxes(0, 1))
            else:
                data = data.reshape(tuple(l_extents) + (elem,))
            if dtype is not None:
                data = data.reshape(-1).view(dtype).reshape(tuple(extents))
        useful = elem
        for extent in extents:
            useful *= extent
        return SystemOpResult(start_time=start_time,
                              end_time=run_result.end_time,
                              useful_bytes=useful,
                              fetched_bytes=run_result.fetched_bytes,
                              requests=len(requests), data=data,
                              stats=run_result.stats)

    # ------------------------------------------------------------------
    def _execute_write(self, dataset: str, origin: Sequence[int],
                       extents: Sequence[int],
                       data: Optional[np.ndarray] = None,
                       start_time: float = 0.0) -> SystemOpResult:
        record = self._dataset(dataset)
        l_origin, l_extents = record.to_layout(origin, extents)
        runs = row_runs(record.layout_dims, l_origin, l_extents)
        elem = record.element_size
        raw = None
        if data is not None and self.store_data:
            array = np.asarray(data)
            if record.layout == "col" and len(record.dims) == 2:
                array = array.T
            raw = np.ascontiguousarray(array).view(np.uint8).ravel()
        requests: List[IoRequest] = []
        consumed = 0
        for linear, length in runs:
            byte_start = linear * elem
            byte_len = length * elem
            if byte_start % self.page_size or byte_len % self.page_size:
                if raw is not None:
                    raise NotImplementedError(
                        "functional baseline writes must be page aligned; "
                        "use the NDS systems for arbitrary functional tiles")
            first = (record.start_page
                     + byte_start // self.page_size)
            count = max(1, -(-byte_len // self.page_size))
            payload = None
            if raw is not None:
                chunk = raw[consumed:consumed + byte_len]
                payload = [chunk[i * self.page_size:(i + 1) * self.page_size]
                           for i in range(count)]
            consumed += byte_len
            gather_chunk = 0 if byte_len <= self.max_request_bytes else None
            requests.append(IoRequest(
                lpns=list(range(first, first + count)),
                useful_bytes=byte_len, placement_chunk=gather_chunk,
                payload=payload))
        useful = elem
        for extent in extents:
            useful *= extent
        return self._run_writes(requests, start_time, useful)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _dataset(self, dataset: str) -> _Dataset:
        record = self._datasets.get(dataset)
        if record is None:
            raise KeyError(f"unknown dataset {dataset!r}")
        return record

    def _read_request(self, record: _Dataset, byte_start: int,
                      byte_len: int,
                      placement_chunk: Optional[int]) -> IoRequest:
        first = record.start_page + byte_start // self.page_size
        last = record.start_page + (byte_start + byte_len - 1) // self.page_size
        # a range, not a list: a read op issues hundreds of one-page
        # requests, and a range is neither built page by page nor
        # tracked by the interpreter's cyclic GC
        return IoRequest(lpns=range(first, last + 1),
                         useful_bytes=byte_len,
                         placement_chunk=placement_chunk)

    def _assemble(self, record: _Dataset, l_extents: Sequence[int],
                  spans: List[Tuple[int, int]],
                  pages_per_request: List[Optional[List[np.ndarray]]],
                  ) -> np.ndarray:
        elem = record.element_size
        total = elem
        for extent in l_extents:
            total *= extent
        out = np.zeros(total, dtype=np.uint8)
        cursor = 0
        for (byte_start, byte_len), pages in zip(spans, pages_per_request):
            if pages is None:
                cursor += byte_len
                continue
            blob = np.concatenate(pages)
            inner = byte_start % self.page_size
            out[cursor:cursor + byte_len] = blob[inner:inner + byte_len]
            cursor += byte_len
        return out
