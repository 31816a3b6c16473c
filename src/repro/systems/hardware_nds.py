"""The hardware-assisted NDS architecture (paper Fig. 7(c)).

The STL runs inside the device controller (Fig. 8): one NDS/NVMe
extended command per tile crosses the interconnect, the controller
translates it, reads building blocks at full internal bandwidth,
assembles the object in device DRAM, and streams assembled segments to
the host "as soon as a segment reaches the optimal data-exchange volume
for the system interconnect" (§4.4). The host issues exactly one
command and performs **no** marshalling.

Cost calibration (§7.3): a worst-case single-page request pays ~17 µs
over the baseline (command handling + full B-tree walk + one-page
assembly on the ARM cores). Writes pay controller-side disassembly,
the source of the 17 % write-bandwidth penalty of Fig. 9(d).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.nd import region_key
from repro.core.api import bytes_to_array
from repro.core.controller import ControllerTiming, NdsController
from repro.faults.model import FaultConfig
from repro.host.cpu import HostCpu
from repro.nvm.profiles import DeviceProfile
from repro.sim.resources import Timeline
from repro.systems.base import SystemOpResult
from repro.systems.nds import NdsSystem

__all__ = ["HardwareNdsSystem"]

#: segment size at which assembled data is pushed to the host (§4.4:
#: the optimal data-exchange volume of the interconnect, [P2]'s 2 MB)
DEFAULT_SEGMENT_BYTES = 2 * 2**20


class HardwareNdsSystem(NdsSystem):
    """NDS-compliant SSD: STL + assembly inside the device controller."""

    name = "hardware-nds"

    def __init__(self, profile: DeviceProfile, store_data: bool = False,
                 controller_timing: ControllerTiming = ControllerTiming(),
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 bb_override: Optional[Sequence[int]] = None,
                 cpu: Optional[HostCpu] = None,
                 cipher=None,
                 faults: Optional[FaultConfig] = None,
                 devices: int = 1, pool=None,
                 extents_per_device: int = 1, rebalance=None,
                 cache: Optional[CacheConfig] = None) -> None:
        self.segment_bytes = segment_bytes
        self.cipher = cipher
        if self._init_device(
                profile, store_data, bb_override, cpu, faults, cache, devices,
                pool, extents_per_device, rebalance,
                lambda i, f: HardwareNdsSystem(
                    profile, store_data=store_data,
                    controller_timing=controller_timing,
                    segment_bytes=segment_bytes, bb_override=bb_override,
                    cipher=cipher, faults=f, cache=cache)):
            return
        self.controller = NdsController(controller_timing)
        # optional controller AES engine (§5.3.3): decryption rides the
        # assembly path, encryption the disassembly path; the engine is
        # one shared pipeline resource
        self.cipher_line = Timeline("aes_engine")

    def _crypt(self, earliest_start: float, num_bytes: int) -> float:
        """Push bytes through the shared AES engine; returns finish."""
        if self.cipher is None:
            return earliest_start
        start, end = self.cipher_line.reserve(
            earliest_start, self.cipher.crypt_time(num_bytes))
        probe = self.scheduler.probe
        if probe is not None:
            probe.span("aes_engine", start, end, "crypt", bytes=num_bytes)
        return end

    def _probed_layers(self) -> tuple:
        return super()._probed_layers() + (self.controller,)

    # ------------------------------------------------------------------
    def _execute_read(self, dataset: str, origin: Sequence[int],
                      extents: Sequence[int], start_time: float = 0.0,
                      with_data: bool = False,
                      dtype: Optional[np.dtype] = None) -> SystemOpResult:
        space_id = self._space_id(dataset)
        space = self.stl.get_space(space_id)
        accesses = self.stl.plan_region(space_id, origin, extents)
        elem = space.element_size

        tier = self.tier
        hit_pairs = []
        if tier is not None:
            remaining = []
            for access in accesses:
                entry = tier.lookup(region_key(dataset, access))
                if entry is not None:
                    hit_pairs.append((access, entry))
                else:
                    remaining.append(access)
            accesses = remaining

        out = None
        if with_data and self.store_data:
            out = np.zeros(tuple(extents) + (elem,), dtype=np.uint8)

        # DRAM hits never leave the host: one contiguous copy each, and
        # if everything is resident no NVMe command is issued at all.
        end = start_time
        for access, entry in hit_pairs:
            if out is not None and entry.data is not None:
                slicer = tuple(slice(lo, hi) for lo, hi in access.out_slice)
                out[slicer] = entry.data
            region_bytes = access.element_count() * elem
            end = max(end, self.cpu.copy(region_bytes, start_time, 0,
                                         label="cache_copy"))

        fetched = 0
        missed = bool(accesses)
        if tier is None or missed:
            # One extended NVMe command from the host (§5.3.1) covers
            # the regions not resident in the host tier.
            issued = self.cpu.issue_io(start_time)
            cmd_done = self.controller.handle_command(issued)
            pending_bytes = 0
            pending_ready = cmd_done
            end = max(end, cmd_done)
            translate_done = cmd_done
            for access in accesses:
                if tier is not None:
                    # coherence: buffered dirty regions overlapping this
                    # block slice must reach flash before we read it
                    translate_done = self._flush_overlapping(
                        dataset, access, translate_done)
                translate_done = self.controller.translate(
                    translate_done, space.rank, 1)
                block = self.stl.read_block(space_id, access, translate_done,
                                            out=out)
                fetched += block.pages * self.page_size
                region_bytes = access.element_count() * elem
                decrypted = self._crypt(block.completion_time,
                                        block.pages * self.page_size)
                ready = self.controller.assemble(decrypted, region_bytes,
                                                 block.pages)
                pending_bytes += region_bytes
                pending_ready = max(pending_ready, ready)
                while pending_bytes >= self.segment_bytes:
                    transfer = self.link.transfer(self.segment_bytes,
                                                  pending_ready)
                    pending_bytes -= self.segment_bytes
                    end = max(end, transfer.end_time)
            if pending_bytes > 0:
                transfer = self.link.transfer(pending_bytes, pending_ready)
                end = max(end, transfer.end_time)
            if tier is not None:
                # assembled regions land in the host tier once the final
                # segment arrives
                for access in accesses:
                    end = self._cache_region(
                        dataset, space_id, access, end,
                        data=self._region_data(space_id, access))
        if tier is not None and missed and tier.config.prefetch:
            # async readahead: speculative commands ride the shared
            # timelines after the demand work but do not hold up this op
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
                              requests=1, data=data)

    # ------------------------------------------------------------------
    def _execute_write(self, dataset: str, origin: Sequence[int],
                       extents: Sequence[int],
                       data: Optional[np.ndarray] = None,
                       start_time: float = 0.0) -> SystemOpResult:
        space_id = self._space_id(dataset)
        space = self.stl.get_space(space_id)
        accesses = self.stl.plan_region(space_id, origin, extents)
        elem = space.element_size

        raw = self._write_source(data, extents)

        useful = elem
        for extent in extents:
            useful *= extent

        tier = None if self._bulk_ingest else self.tier
        if tier is not None and tier.config.write_back:
            # write-back: the object never reaches the device now — one
            # host-memory copy per region into the DRAM tier; the NVMe
            # command is paid at eviction, dirty-bound or fence
            end = start_time
            for access in accesses:
                # no marshalling in this architecture: a contiguous copy
                done = self._absorb_write(dataset, space_id, access,
                                          self._source_region(raw, access),
                                          start_time, 0)
                end = max(end, done)
            return SystemOpResult(start_time=start_time, end_time=end,
                                  useful_bytes=useful, fetched_bytes=0,
                                  requests=1)

        issued = self.cpu.issue_io(start_time)
        cmd_done = self.controller.handle_command(issued)

        # The device pulls the source object over the link in saturating
        # segments (the SSD "requests host main memory content in 4 KB
        # pages and breaks them up later", §7.1) — DMA, no host copies.
        arrival_times = self._segment_arrivals(useful, cmd_done)

        sent = 0
        end = cmd_done
        translate_done = cmd_done
        consumed = 0
        for access in accesses:
            region_bytes = access.element_count() * elem
            consumed += region_bytes
            arrival = self._arrival_for(arrival_times, consumed, useful)
            translate_done = self.controller.translate(
                max(translate_done, cmd_done), space.rank, 1)
            pages = self._pages_of(space_id, access)
            alloc_done = self.controller.allocate(
                max(translate_done, arrival), pages)
            disassembled = self.controller.assemble(alloc_done, region_bytes,
                                                    pages)
            disassembled = self._crypt(disassembled,
                                       pages * self.page_size)
            block = self.stl.write_block(space_id, access, disassembled,
                                         region=self._source_region(raw,
                                                                    access))
            sent += pages * self.page_size
            end = max(end, block.completion_time)
            if tier is not None:
                self._note_write_through(dataset, space_id, access)
        return SystemOpResult(start_time=start_time, end_time=end,
                              useful_bytes=useful, fetched_bytes=sent,
                              requests=1)

    # ------------------------------------------------------------------
    # DRAM tier glue (only reached with cache=CacheConfig(...) set)
    # ------------------------------------------------------------------
    def _flush_cache_entry(self, entry, now: float) -> float:
        """Write one buffered dirty region back: a single-region NDS
        write command replayed through the controller path, so a
        deferred flush costs exactly what the write would have."""
        dataset, space_id, access = entry.payload
        space = self.stl.get_space(space_id)
        elem = space.element_size
        region_bytes = access.element_count() * elem
        issued = self.cpu.issue_io(now)
        cmd_done = self.controller.handle_command(issued)
        transfer = self.link.transfer(region_bytes, cmd_done)
        translated = self.controller.translate(cmd_done, space.rank, 1)
        pages = self._pages_of(space_id, access)
        alloc_done = self.controller.allocate(
            max(translated, transfer.end_time), pages)
        disassembled = self.controller.assemble(alloc_done, region_bytes,
                                                pages)
        disassembled = self._crypt(disassembled, pages * self.page_size)
        block = self.stl.write_block(space_id, access, disassembled,
                                     region=entry.data)
        return block.completion_time

    def _prefetch_region(self, space_id: int, space, access,
                         start: float) -> float:
        """One speculative single-region command: translation, block
        read, controller assembly and the transfer into the tier."""
        issued = self.cpu.issue_io(start)
        cmd_done = self.controller.handle_command(issued)
        translated = self.controller.translate(cmd_done, space.rank, 1)
        block = self.stl.read_block(space_id, access, translated)
        region_bytes = access.element_count() * space.element_size
        decrypted = self._crypt(block.completion_time,
                                block.pages * self.page_size)
        ready = self.controller.assemble(decrypted, region_bytes,
                                         block.pages)
        return self.link.transfer(region_bytes, ready).end_time

    # ------------------------------------------------------------------
    def _reset_timelines(self) -> None:
        super()._reset_timelines()
        self.controller.reset_time()
        self.cipher_line.reset()

    def _segment_arrivals(self, total_bytes: int,
                          first_start: float) -> List[Tuple[int, float]]:
        """Cumulative-bytes → arrival-time steps for the inbound DMA."""
        arrivals = []
        cumulative = 0
        while cumulative < total_bytes:
            chunk = min(self.segment_bytes, total_bytes - cumulative)
            transfer = self.link.transfer(chunk, first_start)
            cumulative += chunk
            arrivals.append((cumulative, transfer.end_time))
        return arrivals

    @staticmethod
    def _arrival_for(arrivals: List[Tuple[int, float]], needed: int,
                     total: int) -> float:
        for cumulative, time in arrivals:
            if cumulative >= min(needed, total):
                return time
        return arrivals[-1][1] if arrivals else 0.0
