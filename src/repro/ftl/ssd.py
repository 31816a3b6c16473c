"""The baseline SSD: linear LBA space over the page-mapped FTL.

This is the device of paper Figure 7(a): the host sees logical page
numbers only; the FTL stripes them over channels; all dimensionality
handling is the host's problem. The device object charges flash-array
time; link and host costs are layered on by :mod:`repro.systems`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.ftl.gc import GarbageCollector
from repro.ftl.mapping import PageMapFTL
from repro.nvm.flash import FlashArray
from repro.nvm.profiles import DeviceProfile
from repro.sim.stats import StatSet

__all__ = ["BaselineSSD", "DeviceOpResult"]


@dataclass
class DeviceOpResult:
    """Timing outcome of one device-level operation batch."""

    start_time: float
    end_time: float
    data: Optional[List[np.ndarray]] = None
    stats: StatSet = field(default_factory=StatSet)

    @property
    def elapsed(self) -> float:
        return self.end_time - self.start_time


class BaselineSSD:
    """A conventional NVMe SSD model: LBA in, striped flash pages out.

    Parameters
    ----------
    profile:
        Device profile (geometry, timing, over-provisioning).
    store_data:
        Functional mode keeps page bytes; timing-only mode does not.
    """

    def __init__(self, profile: DeviceProfile,
                 store_data: bool = True) -> None:
        self.profile = profile
        self.geometry = profile.geometry
        self.flash = FlashArray(profile.geometry, profile.timing,
                                store_data=store_data)
        self.ftl = PageMapFTL(profile.geometry)
        self.gc = GarbageCollector(self.ftl, self.flash,
                                   threshold=profile.overprovisioning)
        self.page_size = profile.geometry.page_size
        #: logical capacity excludes the over-provisioned share
        self.logical_pages = int(
            profile.geometry.total_pages * (1.0 - profile.overprovisioning))

    # ------------------------------------------------------------------
    # page-granular interface
    # ------------------------------------------------------------------
    def write_lpns(self, lpns: Sequence[int], start_time: float = 0.0,
                   data: Optional[Sequence[np.ndarray]] = None) -> DeviceOpResult:
        """Program the given logical pages (in order) starting at
        ``start_time``; runs GC inline when a plane crosses the
        free-space threshold."""
        self._check_lpns(lpns)
        stats = StatSet()
        end = self._program_lpns(lpns, start_time, data, stats)
        return DeviceOpResult(start_time=start_time, end_time=end, stats=stats)

    def _program_lpns(self, lpns: Sequence[int], start_time: float,
                      data: Optional[Sequence[np.ndarray]],
                      stats: StatSet) -> float:
        """The FTL write step behind :meth:`write_lpns` and the host I/O
        engine's write flow; the caller has checked ``lpns``. Counts go
        straight into ``stats``. Returns the end time.

        Per LPN, in order: when its stripe target plane is below the GC
        threshold, the pending programs go to the flash array and the
        plane is collected starting at the running end; then the LPN
        is bound to the plane's append point and its program joins the
        pending chain, whose timings equal per-page calls: every program
        issues at ``start_time``. A page whose program verdict fails
        flushes the chain and is programmed alone, re-driven past the
        failure (:meth:`~repro.ftl.gc.RelocatingCollector.program_page`).
        """
        flash = self.flash
        faults = flash.faults
        if faults is not None:
            # the verdicts below come before any program advances it
            faults.advance(start_time)
        gc = self.gc
        collect = gc.collect
        ftl = self.ftl
        fmap = ftl.map
        map_get = fmap.get
        planes = ftl.planes_by_number
        plane_pages = self.geometry.pages_per_bank
        stripe_planes = ftl.stripe_planes
        stripes = len(stripe_planes)
        trigger_mark = gc.trigger_mark
        program_pages = flash.program_pages
        end = start_time
        batch: List = []
        payloads: Optional[List] = [] if data is not None else None
        for position, lpn in enumerate(lpns):
            plane = stripe_planes[lpn % stripes]
            if plane.free_pages < trigger_mark:
                if batch:
                    done = program_pages(batch, start_time, payloads)
                    if done > end:
                        end = done
                    batch = []
                    payloads = [] if data is not None else None
                gc_result = collect(plane.channel, plane.bank, end)
                if gc_result.end_time > end:
                    end = gc_result.end_time
                stats.merge(gc_result.stats)
            # PageMapFTL.allocate: bind before the old page is
            # invalidated, so a full plane leaves it live
            old = map_get(lpn)
            ppa = plane.allocate_page(lpn)
            fmap[lpn] = ppa
            if old is not None:
                planes[old // plane_pages].invalidate(old)
            if faults is None or faults.program_check(ppa) is None:
                batch.append(ppa)
                if payloads is not None:
                    payloads.append(data[position])
                continue
            # a failing verdict: the chain goes first, then this page
            if batch:
                end = max(end, program_pages(batch, start_time, payloads))
                batch = []
                payloads = [] if data is not None else None
            done = gc.program_page(
                ppa, start_time,
                (data[position],) if data is not None else None,
                lambda _ppa: ftl.trim(lpn),
                lambda: ftl.allocate(lpn)[0])[1]
            if done > end:
                end = done
        if batch:
            done = program_pages(batch, start_time, payloads)
            if done > end:
                end = done
        stats.count("device_pages_written", len(lpns))
        return end

    def read_lpns(self, lpns: Sequence[int], start_time: float = 0.0,
                  with_data: bool = False) -> DeviceOpResult:
        """Read the given logical pages (in order) starting at
        ``start_time``. Unwritten pages read back as zeros (as a real
        drive returns for deallocated LBAs)."""
        self._check_lpns(lpns)
        # one batched pass over the FTL map instead of a lookup() call
        # (and a second full pass for data) per page
        lookup = self.ftl.map.get
        resolved = [lookup(lpn) for lpn in lpns]
        ppas = [ppa for ppa in resolved if ppa is not None]
        end = self.flash.read_pages(ppas, start_time)
        stats = StatSet()
        stats.count("device_pages_read", len(ppas))
        stats.count("device_pages_unmapped", len(resolved) - len(ppas))
        data = self._gather(resolved) if with_data else None
        return DeviceOpResult(start_time=start_time, end_time=end,
                              data=data, stats=stats)

    def trim_lpns(self, lpns: Sequence[int]) -> None:
        """Discard logical pages (deallocate)."""
        for lpn in lpns:
            self.ftl.trim(lpn)

    # ------------------------------------------------------------------
    def _check_lpns(self, lpns: Sequence[int]) -> None:
        if not lpns:
            return
        # min/max bound the whole batch in two C-level passes
        lo = min(lpns)
        if lo < 0:
            raise ValueError(
                f"LPN {lo} outside logical capacity {self.logical_pages}")
        hi = max(lpns)
        if hi >= self.logical_pages:
            raise ValueError(
                f"LPN {hi} outside logical capacity {self.logical_pages}")

    def _gather(self, resolved: Sequence) -> List[np.ndarray]:
        """Contents of resolved pages in request order (ECC-verified);
        unmapped LPNs (None) read back as zeros."""
        return [np.zeros(self.page_size, dtype=np.uint8) if ppa is None
                else self.flash.page_data(ppa) for ppa in resolved]

    def reset_time(self) -> None:
        """Zero all device timelines (content untouched) — used between
        measurement phases."""
        self.flash.reset_time()
