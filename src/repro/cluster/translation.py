"""The host-level translation layer over a device pool.

SALSA's thesis, applied to NDS: keep each device's translation layer
simple and independent, and put the cross-device smarts in a thin host
layer. :class:`ClusterTranslationLayer` intercepts the owning system's
dataset-level operations and

* **declusters** every dataset into axis-0 extents spread over the
  allowed devices (:mod:`repro.cluster.layout`), each extent stored as
  an ordinary device-local dataset;
* **arbitrates** sub-operations per device through the pool's
  queue-depth windows, so independent devices overlap while each
  device's own queue stays bounded;
* **survives whole-device loss** when cross-device parity is enabled:
  reads of extents on a dead device are served by XOR-reconstructing
  from the surviving parity-group members, and the reconstructed extent
  is relocated to a live device on first touch (rebuild-on-read);
* **coordinates garbage collection** so at most one device runs
  background GC per host-level operation (:class:`GcCoordinator`);
* **detects hot extents** and migrates them from the hottest to the
  coldest device under live traffic (:class:`RebalancePolicy`).

Everything here models *time* the same way the single-device stack
does: sub-operations are real inner-system operations on real
timelines, and functional payloads (when ``store_data`` is on) ride
along so byte-equality can be asserted under faults and migration.

Every sub-operation — reads, writes, the parity read-modify-write,
degraded reads, ingests and rehomes — takes one path,
:meth:`ClusterTranslationLayer._subop`: a member
:class:`~repro.runtime.tileop.TileOp` run once through the member
scheduler's ``run_subop``, which does the member's accounting (op
ledger, stream history, scoped ``dN.sched.*`` metrics) and keeps no
per-sub-op object. The pool owner's scheduler keeps the host-level op.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.layout import (ClusterLayout, Extent, ParityExtent,
                                  build_layout)
from repro.cluster.pool import DevicePool
from repro.cluster.sharding import PoolShardSpec
from repro.core.api import bytes_to_array
from repro.faults.errors import DegradedReadError
from repro.runtime.tileop import TileOp
from repro.sim.stats import StatSet

__all__ = ["RebalancePolicy", "GcCoordinator", "ClusterTranslationLayer",
           "split_fault_config"]


def split_fault_config(config, device: int, pool_size: int):
    """Derive device ``device``'s :class:`~repro.faults.model.FaultConfig`
    from the pool-level one.

    Each device's injector receives only its own plan events, and the
    ``parity`` flag is cleared — redundancy moves from within-device
    XOR stripes to cross-device parity groups owned by the host layer.
    """
    if config is None:
        return None
    plan = None
    if config.plan is not None:
        from repro.faults.plan import FaultPlan
        events = [event for event in config.plan.events
                  if event.device == device]
        if events:
            plan = FaultPlan()
            plan.events.extend(events)
    return replace(config, parity=False, plan=plan,
                   seed=config.seed + device)


@dataclass(frozen=True)
class RebalancePolicy:
    """When and how aggressively to migrate hot extents.

    Every ``check_interval`` host-level operations the layer compares
    per-device heat (decayed access counts); when the hottest live
    device carries at least ``ratio`` times the coldest's heat (and at
    least ``min_heat``), the hottest extent moves to the coldest
    device. ``decay`` ages heat so old bursts stop driving migration.
    """

    check_interval: int = 16
    ratio: float = 2.0
    min_heat: float = 8.0
    decay: float = 0.9

    def __post_init__(self) -> None:
        if self.check_interval < 1:
            raise ValueError("rebalance check interval must be >= 1")
        if self.ratio < 1.0:
            raise ValueError("rebalance ratio below 1 would thrash")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("heat decay must be in (0, 1]")


class GcCoordinator:
    """Round-robin background-GC token over the pool's STL devices.

    A single device pool must not have every device collecting at once
    (that is exactly the tail-latency cliff SALSA-style host layers
    exist to avoid). The coordinator hands one idle-time GC budget to
    one live device per host-level operation, in round-robin order, so
    collections on different devices never pile onto the same op.
    """

    def __init__(self, pool: DevicePool,
                 budget_seconds: float = 2e-3) -> None:
        self.pool = pool
        self.budget_seconds = budget_seconds
        self._next = 0

    def offer(self, now: float) -> None:
        """Give one device its idle-time GC slice at model time ``now``."""
        count = len(self.pool)
        for step in range(count):
            device = (self._next + step) % count
            if self.pool.is_dead(device):
                continue
            stl = getattr(self.pool.handle(device).system, "stl", None)
            gc = getattr(stl, "gc", None)
            if gc is None:
                continue
            self._next = (device + 1) % count
            result = gc.collect_background(now, self.budget_seconds)
            if result.ran:
                self.pool.note(device, "gc_background_blocks",
                               result.blocks_erased)
            return


class ClusterTranslationLayer:
    """Decluster one system's datasets over a :class:`DevicePool`."""

    def __init__(self, pool: DevicePool, owner,
                 parity: bool = False, extents_per_device: int = 1,
                 rebalance: Optional[RebalancePolicy] = None) -> None:
        self.pool = pool
        self.owner = owner
        self.parity = parity
        self.extents_per_device = max(1, int(extents_per_device))
        self.rebalance = rebalance
        self.gc = GcCoordinator(pool)
        #: ingest key (architecture-specific) -> layout
        self.layouts: Dict[object, ClusterLayout] = {}
        self._layout_seq = 0
        #: (layout ordinal, extent index) -> decayed access count
        self.heat: Dict[Tuple[int, int], float] = {}
        self._ops_since_check = 0
        self.stats = StatSet()
        #: the owning system's :class:`~repro.obs.probe.Probe` while a
        #: trace or metrics subscriber is attached, else None (pool
        #: members get device-scoped probes from the owning system)
        self.probe = None
        #: the owning scheduler's op ledger; ``cluster_*`` counts are
        #: pushed into it as fault deltas
        self.ledger = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def template(self):
        """The inner system the architecture hooks are asked on (all
        pool members are the same class with the same geometry)."""
        return self.pool.devices[0].system

    @property
    def store_data(self) -> bool:
        return bool(getattr(self.template, "store_data", False))

    def execute(self, op, earliest_start: float):
        """Run one dataset-level op across the pool (the owning
        system's ``_execute_op`` delegates here when pooled)."""
        self.pool.observe(earliest_start)
        if op.kind == "ingest":
            result = self._ingest(op, earliest_start)
        elif op.kind == "read":
            result = self._read(op, earliest_start)
        elif op.kind == "write":
            result = self._write(op, earliest_start)
        else:
            raise ValueError(f"unknown TileOp kind {op.kind!r}")
        self._ops_since_check += 1
        self.gc.offer(result.end_time)
        if self.rebalance is not None:
            self._maybe_rebalance(result.end_time)
        return result

    def _instant(self, time: float, name: str, **args) -> None:
        if self.probe is not None:
            self.probe.instant("cluster", time, name, **args)

    def _count(self, name: str, amount: int = 1) -> None:
        self.stats.count(name, amount)
        if self.ledger is not None:
            self.ledger.count_fault("cluster_" + name, amount)
        if self.probe is not None:
            self.probe.count(f"cluster.{name}", amount)

    def _subop(self, device: int, ready: float, make, *args, **kwargs):
        """One member I/O, the only place a pool member runs: build the
        member op with ``make`` (``TileOp.ingest``, ``TileOp.read`` or
        ``TileOp.write``), submitted when ``device``'s queue-depth
        window admits it from ``ready``, run it through the member
        scheduler's ``run_subop``, complete the window and account the
        sub-op. Returns the member's ``SystemOpResult``; the op itself
        is not kept."""
        handle = self.pool.devices[device]
        window = handle.window
        op = make(*args, submit_time=window.earliest(ready), **kwargs)
        res = handle.system.scheduler.run_subop(op).result
        window.complete(res.end_time)
        self.pool.note_io(device, res)
        return res

    # ------------------------------------------------------------------
    # ingest: build the layout and place every extent
    # ------------------------------------------------------------------
    def _ingest(self, op, earliest: float):
        params = dict(op.params)
        pool_shard = PoolShardSpec.normalize(params.pop("shard", None))
        dims = tuple(int(d) for d in op.extents)
        elem = int(op.element_size)
        template = self.template
        key = template._cluster_ingest_key(op.dataset, dims, params)
        if key in self.layouts:
            raise ValueError(f"dataset {op.dataset!r} already ingested")
        allowed = (pool_shard.device_subset(len(self.pool))
                   if pool_shard is not None else tuple(range(len(self.pool))))
        placement = tuple(d for d in allowed if not self.pool.is_dead(d))
        if not placement:
            raise ValueError(
                f"no live devices left in placement set {allowed}")
        inner_params = dict(params)
        if pool_shard is not None and pool_shard.shard is not None:
            inner_params["shard"] = pool_shard.shard
        align = template._cluster_align(dims, elem, inner_params)
        layout = build_layout(op.dataset, dims, elem, align, placement,
                              self._layout_seq,
                              extents_per_device=self.extents_per_device,
                              parity=self.parity, inner_params=inner_params)
        self._layout_seq += 1

        array = None
        if op.data is not None and self.store_data:
            array = np.ascontiguousarray(np.asarray(op.data))
            if tuple(array.shape) != dims:
                raise ValueError(
                    f"data shape {array.shape} != dims {dims}")

        completions: List[float] = []
        fetched = 0
        requests = 0
        for member in layout.extents + layout.parity:
            payload = None
            if array is not None:
                payload = (self._parity_payload(layout, member, array)
                           if isinstance(member, ParityExtent)
                           else array[member.row_start:member.row_end])
            res = self._subop(
                member.device, earliest, TileOp.ingest, member.store_key,
                (member.rows,) + dims[1:], elem, data=payload,
                **layout.inner_params)
            self.pool.note(member.device, "extents")
            completions.append(res.end_time)
            fetched += res.fetched_bytes
            requests += res.requests
        self.layouts[key] = layout
        from repro.systems.base import SystemOpResult
        return SystemOpResult(
            start_time=earliest, end_time=max(completions, default=earliest),
            useful_bytes=layout.total_bytes, fetched_bytes=fetched,
            requests=requests)

    def _parity_payload(self, layout: ClusterLayout, parity: ParityExtent,
                        array: np.ndarray) -> np.ndarray:
        """XOR of the group's member slabs, zero-padded to the parity
        extent's height, as elements of the dataset's dtype width."""
        elem = layout.element_size
        shape = (parity.rows,) + layout.dims[1:] + (elem,)
        acc = np.zeros(shape, dtype=np.uint8)
        for index in parity.members:
            extent = layout.extents[index]
            slab = np.ascontiguousarray(array[extent.row_start:extent.row_end])
            raw = slab.view(np.uint8).reshape(slab.shape + (slab.dtype.itemsize,))
            acc[:extent.rows] ^= raw
        return self._bytes_to_elements(acc, elem)

    @staticmethod
    def _bytes_to_elements(raw: np.ndarray, elem: int) -> np.ndarray:
        """Reinterpret a ``(..., elem)`` uint8 buffer as opaque ``elem``-
        byte elements, the shape inner ingests/writes expect."""
        shape = raw.shape
        flat = raw.reshape(shape[:-2] + (shape[-2] * shape[-1],))
        return np.ascontiguousarray(flat).view(np.dtype((np.void, elem)))

    # ------------------------------------------------------------------
    # read: scatter sub-reads, reassemble, reconstruct when degraded
    # ------------------------------------------------------------------
    def _layout_for(self, dataset: str, extents) -> ClusterLayout:
        key = self.template._cluster_read_key(dataset, tuple(extents))
        layout = self.layouts.get(key)
        if layout is None:
            raise ValueError(f"unknown dataset {dataset!r}")
        return layout

    def _read(self, op, earliest: float):
        layout = self._layout_for(op.dataset, op.extents)
        elem = layout.element_size
        extents = tuple(int(e) for e in op.extents)
        functional = op.with_data and self.store_data
        out = (np.zeros(extents + (elem,), dtype=np.uint8)
               if functional else None)
        completions: List[float] = []
        fetched = 0
        requests = 0
        for extent, lorigin, lextents, out_row in \
                layout.subregions(op.origin, extents):
            ready = self._ensure_alive(layout, extent, earliest)
            res = self._subop(extent.device, ready, TileOp.read,
                              extent.store_key, lorigin, lextents,
                              with_data=functional)
            if out is not None and res.data is not None:
                out[out_row:out_row + lextents[0]] = res.data
            self.heat[(layout.ordinal, extent.index)] = \
                self.heat.get((layout.ordinal, extent.index), 0.0) + 1.0
            completions.append(res.end_time)
            fetched += res.fetched_bytes
            requests += res.requests
        useful = elem * math.prod(extents)
        data = None
        if out is not None:
            data = out if op.dtype is None else bytes_to_array(out, op.dtype)
        from repro.systems.base import SystemOpResult
        return SystemOpResult(
            start_time=earliest, end_time=max(completions, default=earliest),
            useful_bytes=useful, fetched_bytes=fetched, requests=requests,
            data=data)

    # ------------------------------------------------------------------
    # write: plain per-extent writes, or parity read-modify-write
    # ------------------------------------------------------------------
    def _write(self, op, earliest: float):
        layout = self._layout_for(op.dataset, op.extents)
        elem = layout.element_size
        extents = tuple(int(e) for e in op.extents)
        array = None
        if op.data is not None and self.store_data:
            array = np.ascontiguousarray(np.asarray(op.data))
            if tuple(array.shape) != extents:
                raise ValueError(
                    f"data shape {array.shape} != extents {extents}")
        completions: List[float] = []
        fetched = 0
        requests = 0
        for extent, lorigin, lextents, out_row in \
                layout.subregions(op.origin, extents):
            payload = (array[out_row:out_row + lextents[0]]
                       if array is not None else None)
            parity = layout.parity_of(extent)
            ready = self._ensure_alive(layout, extent, earliest)
            if parity is None:
                res = self._subop(extent.device, ready, TileOp.write,
                                  extent.store_key, lorigin, lextents,
                                  data=payload)
                end, sub_fetched, sub_requests = \
                    res.end_time, res.fetched_bytes, res.requests
            else:
                end, sub_fetched, sub_requests = self._parity_rmw(
                    layout, extent, parity, lorigin, lextents, payload,
                    ready, earliest)
            completions.append(end)
            fetched += sub_fetched
            requests += sub_requests
            self.heat[(layout.ordinal, extent.index)] = \
                self.heat.get((layout.ordinal, extent.index), 0.0) + 1.0
        useful = elem * math.prod(extents)
        from repro.systems.base import SystemOpResult
        return SystemOpResult(
            start_time=earliest, end_time=max(completions, default=earliest),
            useful_bytes=useful, fetched_bytes=fetched, requests=requests)

    def _parity_rmw(self, layout: ClusterLayout, extent: Extent,
                    parity: ParityExtent, lorigin, lextents, payload,
                    data_ready: float, earliest: float):
        """RAID small-write: read old data + old parity, write new data
        + (old parity xor old data xor new data)."""
        functional = payload is not None
        parity_ready = self._ensure_alive(layout, parity, earliest)
        old_data = self._subop(extent.device, data_ready, TileOp.read,
                               extent.store_key, lorigin, lextents,
                               with_data=functional)
        old_parity = self._subop(parity.device, parity_ready, TileOp.read,
                                 parity.store_key, lorigin, lextents,
                                 with_data=functional)
        data_write = self._subop(extent.device, old_data.end_time,
                                 TileOp.write, extent.store_key, lorigin,
                                 lextents, data=payload)
        new_parity = None
        if functional:
            raw = np.ascontiguousarray(payload)
            raw = raw.view(np.uint8).reshape(raw.shape + (raw.dtype.itemsize,))
            delta = old_parity.data ^ old_data.data ^ raw
            new_parity = self._bytes_to_elements(delta, layout.element_size)
        parity_write = self._subop(
            parity.device, max(old_parity.end_time, old_data.end_time),
            TileOp.write, parity.store_key, lorigin, lextents,
            data=new_parity)
        subops = (old_data, old_parity, data_write, parity_write)
        return (max(data_write.end_time, parity_write.end_time),
                sum(r.fetched_bytes for r in subops),
                sum(r.requests for r in subops))

    # ------------------------------------------------------------------
    # degraded reads, rebuild, migration
    # ------------------------------------------------------------------
    def _region_units(self, layout: ClusterLayout, origin, extents):
        """Sub-regions a device can serve in one read: the oracle only
        answers exact stored-tile regions, so regions are tiled; every
        other architecture reads the region in a single command."""
        tile = layout.inner_params.get("tile")
        if not tile:
            return [(tuple(origin), tuple(extents))]
        steps = [range(o, o + e, t)
                 for o, e, t in zip(origin, extents, tile)]
        units = []
        for cell in itertools.product(*steps):
            units.append((cell, tuple(
                min(t, o + e - c)
                for c, o, e, t in zip(cell, origin, extents, tile))))
        return units

    def _read_units(self, layout: ClusterLayout, device: int,
                    store_key: str, origin, extents, ready: float,
                    functional: bool):
        """Timed per-unit reads of one region on one device; returns
        ``(unit_origin, unit_extents, result)`` triples."""
        return [(uorigin, uextents,
                 self._subop(device, ready, TileOp.read, store_key, uorigin,
                             uextents, with_data=functional))
                for uorigin, uextents in self._region_units(layout, origin,
                                                            extents)]

    def _group_members(self, layout: ClusterLayout, group: int):
        """Data extents + parity extent of one group (duck-typed)."""
        parity = layout.parity[group]
        members: List[object] = [layout.extents[i] for i in parity.members]
        members.append(parity)
        return members

    def _degraded_read(self, layout: ClusterLayout, target, lorigin,
                       lextents, earliest: float, functional: bool):
        """Reconstruct ``target``'s sub-region by XOR of the surviving
        group members (zero-padded: shorter members contribute zeros).

        Returns ``(end_time, payload_or_None)``.
        """
        group = target.group
        if group < 0 or group >= len(layout.parity):
            raise DegradedReadError(
                f"{layout.dataset} extent {target.index}", earliest,
                detail="device dead and no cross-device parity")
        lo, hi = int(lorigin[0]), int(lorigin[0]) + int(lextents[0])
        rest_origin = tuple(int(o) for o in lorigin[1:])
        rest_extents = tuple(int(e) for e in lextents[1:])
        elem = layout.element_size
        acc = (np.zeros(tuple(lextents) + (elem,), dtype=np.uint8)
               if functional else None)
        completions: List[float] = []
        for member in self._group_members(layout, group):
            if member is target:
                continue
            if self.pool.is_dead(member.device):
                raise DegradedReadError(
                    f"{layout.dataset} extent {target.index}", earliest,
                    detail=f"second device d{member.device} dead in parity "
                           f"group {group}")
            clip_hi = min(hi, member.rows)
            if clip_hi <= lo:
                continue
            region_origin = (lo,) + rest_origin
            reads = self._read_units(
                layout, member.device, member.store_key, region_origin,
                (clip_hi - lo,) + rest_extents, earliest, functional)
            for uorigin, uextents, res in reads:
                completions.append(res.end_time)
                if acc is not None and res.data is not None:
                    slicer = tuple(
                        slice(uo - ro, uo - ro + ue) for uo, ro, ue in
                        zip(uorigin, region_origin, uextents))
                    acc[slicer] ^= res.data
        self.pool.note(target.device, "degraded_reads")
        self._count("degraded_reads")
        end = max(completions, default=earliest)
        self._instant(end, "degraded_read", dataset=layout.dataset,
                      extent=target.index, device=target.device)
        payload = (self._bytes_to_elements(acc, elem)
                   if acc is not None else None)
        return end, payload

    def _rebuild_target_device(self, layout: ClusterLayout,
                               target) -> int:
        """Pick the live device to rebuild onto: inside the layout's
        placement set, not hosting another member of the same group,
        fewest extents overall, lowest id."""
        group_devices = set()
        if 0 <= target.group < len(layout.parity):
            group_devices = {member.device for member in
                             self._group_members(layout, target.group)
                             if member is not target}
        population: Dict[int, int] = {d: 0 for d in self.pool.live_devices()}
        for other in self.layouts.values():
            for extent in other.extents:
                if extent.device in population:
                    population[extent.device] += 1
            for parity in other.parity:
                if parity.device in population:
                    population[parity.device] += 1
        candidates = [d for d in layout.devices
                      if d in population and d not in group_devices]
        if not candidates:
            candidates = [d for d in layout.devices if d in population]
        if not candidates:
            raise DegradedReadError(
                f"{layout.dataset} extent {target.index}", 0.0,
                detail="no live device to rebuild onto")
        return min(candidates, key=lambda d: (population[d], d))

    def _ensure_alive(self, layout: ClusterLayout, target,
                      now: float) -> float:
        """Rebuild ``target`` onto a live device if its home is dead
        (rebuild-on-first-touch). Returns the time the extent is
        usable — ``now`` when it was never lost."""
        self.pool.observe(now)
        if not self.pool.is_dead(target.device):
            return now
        rank_dims = (target.rows,) + layout.dims[1:]
        origin = tuple(0 for _ in rank_dims)
        read_end, payload = self._degraded_read(
            layout, target, origin, rank_dims, now, self.store_data)
        new_device = self._rebuild_target_device(layout, target)
        end = self._rehome(layout, target, new_device, payload, read_end,
                           "rebuilds", "rebuild_extent")
        self.pool.note(new_device, "rebuilds")
        return end

    def _rehome(self, layout: ClusterLayout, member, device: int, payload,
                ready: float, count: str, event: str) -> float:
        """Ingest ``member``'s whole extent (``payload``) on ``device``
        from ``ready`` under the next generation's key, count ``count``,
        trace ``event``, then flip the map. Returns the ingest's end."""
        tag = (f"p{member.group}" if isinstance(member, ParityExtent)
               else f"e{member.index}")
        generation = member.generation + 1
        new_key = f"{layout.dataset}#l{layout.ordinal}{tag}.g{generation}"
        res = self._subop(device, ready, TileOp.ingest, new_key,
                          (member.rows,) + layout.dims[1:],
                          layout.element_size, data=payload,
                          **layout.inner_params)
        self.pool.note(device, "extents")
        self._count(count)
        self._instant(res.end_time, event, dataset=layout.dataset,
                      extent=member.index, source=member.device,
                      device=device)
        member.device = device
        member.store_key = new_key
        member.generation = generation
        return res.end_time

    def migrate_extent(self, layout: ClusterLayout, extent,
                       target_device: int, now: float) -> float:
        """Move one extent to ``target_device`` under live traffic: a
        timed full-extent read on the source, a timed ingest on the
        target, then the map flips. Returns the completion time."""
        source = extent.device
        if self.pool.is_dead(source):
            return self._ensure_alive(layout, extent, now)
        if target_device == source:
            raise ValueError("migration target is the extent's home")
        if self.pool.is_dead(target_device):
            raise ValueError(f"migration target d{target_device} is dead")
        if target_device not in layout.devices:
            raise ValueError(
                f"d{target_device} outside the dataset's placement set "
                f"{layout.devices}")
        if 0 <= extent.group < len(layout.parity):
            occupied = {member.device for member in
                        self._group_members(layout, extent.group)
                        if member is not extent}
            if target_device in occupied:
                raise ValueError(
                    f"d{target_device} already hosts a member of parity "
                    f"group {extent.group}")
        rank_dims = (extent.rows,) + layout.dims[1:]
        origin = tuple(0 for _ in rank_dims)
        elem = layout.element_size
        buf = (np.zeros(rank_dims + (elem,), dtype=np.uint8)
               if self.store_data else None)
        reads = self._read_units(layout, source, extent.store_key,
                                 origin, rank_dims, now, self.store_data)
        read_end = now
        for uorigin, uextents, res in reads:
            read_end = max(read_end, res.end_time)
            if buf is not None and res.data is not None:
                slicer = tuple(slice(uo, uo + ue)
                               for uo, ue in zip(uorigin, uextents))
                buf[slicer] = res.data
        payload = (self._bytes_to_elements(buf, elem)
                   if buf is not None else None)
        end = self._rehome(layout, extent, target_device, payload, read_end,
                           "migrations", "migrate_extent")
        self.pool.note(source, "migrations_out")
        self.pool.note(target_device, "migrations_in")
        return end

    def _maybe_rebalance(self, now: float) -> None:
        policy = self.rebalance
        if policy is None or self._ops_since_check < policy.check_interval:
            return
        self._ops_since_check = 0
        live = self.pool.live_devices()
        if len(live) < 2:
            return
        device_heat: Dict[int, float] = {d: 0.0 for d in live}
        hottest: Dict[int, Tuple[float, ClusterLayout, Extent]] = {}
        for layout in self.layouts.values():
            for extent in layout.extents:
                if extent.device not in device_heat:
                    continue
                value = self.heat.get((layout.ordinal, extent.index), 0.0)
                device_heat[extent.device] += value
                best = hottest.get(extent.device)
                if best is None or value > best[0]:
                    hottest[extent.device] = (value, layout, extent)
        hot = max(live, key=lambda d: (device_heat[d], -d))
        cold = min(live, key=lambda d: (device_heat[d], d))
        if (hot != cold
                and device_heat[hot] >= policy.min_heat
                and device_heat[hot] >= policy.ratio * device_heat[cold]
                and hot in hottest):
            _, layout, extent = hottest[hot]
            movable = (cold in layout.devices
                       and not (0 <= extent.group < len(layout.parity)
                                and cold in {m.device for m in
                                             self._group_members(
                                                 layout, extent.group)
                                             if m is not extent}))
            if movable:
                self.migrate_extent(layout, extent, cold, now)
        for key in self.heat:
            self.heat[key] *= policy.decay

    # ------------------------------------------------------------------
    # accounting and lifecycle
    # ------------------------------------------------------------------
    def fault_counters(self) -> Optional[Dict[str, int]]:
        merged = self.pool.fault_counters()
        cluster = dict(self.stats.counters)
        if merged is None and not cluster and not self.pool.has_kill_plan:
            return None
        merged = dict(merged or {})
        for name, value in cluster.items():
            merged[f"cluster_{name}"] = merged.get(f"cluster_{name}", 0) \
                + value
        return merged

    def device_report(self) -> Dict[str, Dict[str, object]]:
        report = self.pool.device_report()
        for layout in self.layouts.values():
            for extent in layout.extents:
                entry = report.get(f"d{extent.device}")
                if entry is not None:
                    entry["extents_resident"] = \
                        int(entry.get("extents_resident", 0)) + 1
            for parity in layout.parity:
                entry = report.get(f"d{parity.device}")
                if entry is not None:
                    entry["extents_resident"] = \
                        int(entry.get("extents_resident", 0)) + 1
        return report

    def reset_time(self) -> None:
        self.pool.reset_time()
