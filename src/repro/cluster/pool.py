"""A pool of independently-simulated SSDs behind one host.

Each :class:`DeviceHandle` wraps a complete single-device storage
system — its own flash array, link lane and host completion lane — so
devices never share timelines and per-device translation stays
independent (SALSA elevates commodity devices with a host translation
layer; FMMU keeps per-device maps separate so they never serialize).
The pool adds what is genuinely shared at the host:

* one :class:`~repro.runtime.scheduler.QueueDepthWindow` per device —
  the host-side in-flight window that arbitrates *all* tenant streams'
  sub-operations against that device;
* whole-device failure state, observed lazily and monotonically from a
  :class:`~repro.faults.plan.FaultPlan`'s ``kill_device`` events (a
  dead device never comes back);
* per-device accounting for the observability stack (sub-ops, bytes,
  service seconds, degraded reads, rebuilds, migrations).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.scheduler import QueueDepthWindow

__all__ = ["DeviceHandle", "DevicePool", "DEFAULT_DEVICE_QUEUE_DEPTH"]

#: host-side in-flight window per device (all tenant streams combined);
#: matches the co-run default queue depth
DEFAULT_DEVICE_QUEUE_DEPTH = 8

_COUNTER_KEYS = ("subops", "bytes", "service_time", "degraded_reads",
                 "rebuilds", "migrations_in", "migrations_out")


class DeviceHandle:
    """One pool slot: a device system plus its host-side window."""

    __slots__ = ("device_id", "system", "window")

    def __init__(self, device_id: int, system) -> None:
        self.device_id = device_id
        self.system = system
        self.window = QueueDepthWindow(DEFAULT_DEVICE_QUEUE_DEPTH)


class DevicePool:
    """N independently-simulated devices plus the shared host state."""

    def __init__(self, systems: Sequence) -> None:
        if not systems:
            raise ValueError("a device pool needs at least one device")
        self.devices: List[DeviceHandle] = [
            DeviceHandle(index, system)
            for index, system in enumerate(systems)]
        #: device -> earliest scheduled kill time (from kill_device plan
        #: events); applied lazily as ops observe model time
        self._kill_times: Dict[int, float] = {}
        self._clock = 0.0
        self.dead: set = set()
        self._counters: List[Dict[str, float]] = [
            {key: 0 for key in _COUNTER_KEYS} for _ in systems]

    @classmethod
    def from_factory(cls, count: int, factory: Callable[[int], object]
                     ) -> "DevicePool":
        """Build ``count`` devices with ``factory(device_id)``."""
        if count < 1:
            raise ValueError("a device pool needs at least one device")
        return cls([factory(index) for index in range(count)])

    def __len__(self) -> int:
        return len(self.devices)

    def handle(self, device: int) -> DeviceHandle:
        if not 0 <= device < len(self.devices):
            raise ValueError(
                f"device {device} outside pool (0..{len(self.devices) - 1})")
        return self.devices[device]

    # ------------------------------------------------------------------
    # whole-device failures
    # ------------------------------------------------------------------
    def schedule_kill(self, device: int, at: float = 0.0) -> None:
        """Arm a whole-device kill at model time ``at`` (lazy, like the
        per-device fault injector's plan events)."""
        self.handle(device)
        current = self._kill_times.get(device)
        if current is None or at < current:
            self._kill_times[device] = at

    def kill_now(self, device: int) -> None:
        """Mark a device dead immediately (runtime control path; the
        scripted path is a :class:`~repro.faults.plan.FaultPlan`
        ``kill_device`` event)."""
        self.handle(device)
        self.dead.add(device)

    def observe(self, now: float) -> None:
        """Apply every scheduled kill due at or before ``now``. Time is
        observed monotonically: once a kill is seen it stays applied."""
        if now > self._clock:
            self._clock = now
        for device, at in list(self._kill_times.items()):
            if at <= self._clock:
                self.dead.add(device)
                del self._kill_times[device]

    def is_dead(self, device: int) -> bool:
        return device in self.dead

    @property
    def has_kill_plan(self) -> bool:
        """Any device already dead or scheduled to die."""
        return bool(self.dead or self._kill_times)

    def live_devices(self) -> Tuple[int, ...]:
        return tuple(handle.device_id for handle in self.devices
                     if handle.device_id not in self.dead)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def note(self, device: int, key: str, amount: float = 1) -> None:
        counters = self._counters[device]
        counters[key] = counters.get(key, 0) + amount

    def note_io(self, device: int, result) -> None:
        """Account one completed sub-operation on ``device``."""
        counters = self._counters[device]
        counters["subops"] += 1
        counters["bytes"] += result.fetched_bytes
        counters["service_time"] += max(
            result.end_time - result.start_time, 0.0)

    def device_report(self) -> Dict[str, Dict[str, object]]:
        """Per-device accounting snapshot, JSON-ready, ``d0``/``d1``...
        keys matching the trace/metrics label convention."""
        report: Dict[str, Dict[str, object]] = {}
        for handle in self.devices:
            entry: Dict[str, object] = dict(self._counters[handle.device_id])
            entry["dead"] = handle.device_id in self.dead
            stl = getattr(handle.system, "stl", None)
            if stl is not None:
                gc = getattr(stl, "gc", None)
                if gc is not None:
                    entry["gc_erased_blocks"] = gc.total_erased
                allocator = getattr(stl, "allocator", None)
                if allocator is not None:
                    entry["free_pages"] = allocator.total_free_pages()
            report[f"d{handle.device_id}"] = entry
        return report

    # ------------------------------------------------------------------
    def reset_time(self) -> None:
        """Zero every device's timelines and the host windows; death is
        structural and persists across measurement phases."""
        for handle in self.devices:
            handle.system.reset_time()
            handle.window.reset()

    def fault_counters(self) -> Optional[Dict[str, int]]:
        """Summed per-device injector counters (None when no device has
        an injector attached)."""
        merged: Dict[str, int] = {}
        any_injector = False
        for handle in self.devices:
            counters = handle.system.fault_counters()
            if counters is None:
                continue
            any_injector = True
            for name, value in counters.items():
                merged[name] = merged.get(name, 0) + value
        return merged if any_injector else None
