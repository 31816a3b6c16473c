"""The host DRAM cache tier.

:class:`HostTierCache` holds recently fetched regions (building-block
regions for the NDS systems, LPN runs for the linear systems) in host
DRAM, keyed opaquely by the owning system. It owns byte accounting,
the eviction policy, the write-back dirty set, and the deterministic
hit/miss/eviction counters; each increment is also pushed into the
owning scheduler's :class:`~repro.runtime.ledger.OpLedger`, which
attributes it to the executing op and its stream.

Timing stays with the owner: the tier never touches a timeline itself.
Dirty data reaches flash through ``flush_fn(entry, now) -> float``, a
callback the owning system installs that replays its own per-access
device write path — so a write-back flush costs exactly what the write
would have cost, just later.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional

from repro.cache.config import CacheConfig
from repro.cache.policy import make_policy

__all__ = ["CacheEntry", "HostTierCache"]

#: counter keys, in the order reports render them
COUNTER_KEYS = ("hits", "misses", "insertions", "evictions", "rejected",
                "invalidations", "writebacks", "prefetch_issued",
                "prefetch_hits")


@dataclass
class CacheEntry:
    """One cached region."""

    key: Hashable
    nbytes: int
    #: owner context needed to flush/refetch (e.g. (dataset, space_id,
    #: access) for the NDS systems; for a linear system's dirty run, its
    #: request as a one-request IoRun, which a flush replays)
    payload: object = None
    #: region bytes when the system runs functionally (store_data);
    #: None in timing-only mode
    data: object = None
    dirty: bool = False
    prefetched: bool = False
    #: coarse locality bucket for overlap checks (the NDS systems use
    #: (dataset, block_coord) so writes only scan one block's entries)
    group: Hashable = None


class HostTierCache:
    """Byte-budgeted DRAM cache with pluggable eviction and write-back."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.policy = make_policy(config)
        self.entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self.total_bytes = 0
        self.counters: Dict[str, int] = {key: 0 for key in COUNTER_KEYS}
        #: dirty key -> its bytes, in first-written order (flush oldest
        #: first); ``_dirty_bytes`` is the running sum of the values
        self._dirty: "OrderedDict[Hashable, int]" = OrderedDict()
        self._dirty_bytes = 0
        #: group -> resident keys in insertion order (only keys with a
        #: group); a dict, not a set, so iteration never depends on
        #: string-hash order
        self._groups: Dict[Hashable, Dict[Hashable, None]] = {}
        #: installed by the owning system; replays its device write path
        self.flush_fn: Optional[Callable[[CacheEntry, float], float]] = None
        #: the owning system's :class:`~repro.obs.probe.Probe` while a
        #: trace or metrics subscriber is attached, else None;
        #: observation only, never feeds back
        self.probe = None
        #: the owning scheduler's op ledger (None for a standalone tier)
        self.ledger = None

    def _count(self, key: str, event: Optional[str]) -> None:
        """One counter increment: the tier's total, the executing op's
        ledger, and the probe's ``event`` metric."""
        self.counters[key] += 1
        if self.ledger is not None:
            self.ledger.count_cache(key)
        if event is not None and self.probe is not None:
            self.probe.count(event)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup(self, key: Hashable) -> Optional[CacheEntry]:
        """Demand lookup: counts a hit or miss and refreshes recency."""
        entry = self.entries.get(key)
        if entry is None:
            self._count("misses", "cache.miss")
            return None
        if entry.prefetched:
            self._count("prefetch_hits", "cache.prefetch_hit")
            entry.prefetched = False
        self._count("hits", "cache.hit")
        self.policy.on_hit(key)
        return entry

    def contains(self, key: Hashable) -> bool:
        """Presence probe that does NOT count (prefetch planning)."""
        return key in self.entries

    def get(self, key: Hashable) -> Optional[CacheEntry]:
        """Uncounted fetch (coherence checks)."""
        return self.entries.get(key)

    def group_keys(self, group: Hashable) -> List[Hashable]:
        """Resident keys sharing ``group`` (copy; safe to mutate over)."""
        return list(self._groups.get(group, ()))

    # ------------------------------------------------------------------
    # insertion / eviction
    # ------------------------------------------------------------------
    def insert(self, key: Hashable, nbytes: int, now: float,
               payload: object = None, data: object = None,
               dirty: bool = False, prefetched: bool = False,
               group: Hashable = None) -> float:
        """Insert or refresh a region; returns the (possibly advanced)
        time after any evictions/flushes the insertion forced."""
        entry = self.entries.get(key)
        if entry is not None:
            # refresh in place (e.g. write-through update, re-fetch)
            self.total_bytes += nbytes - entry.nbytes
            entry.nbytes = nbytes
            if payload is not None:
                entry.payload = payload
            if data is not None:
                entry.data = data
            if dirty:
                entry.dirty = True
            if entry.dirty:
                self._dirty_bytes += nbytes - self._dirty.get(key, 0)
                self._dirty[key] = nbytes
            entry.prefetched = prefetched and entry.prefetched
            self.policy.on_hit(key)
            return self._enforce(now)
        # dirty insertions are write-buffer contents, not cached reads:
        # rejecting one would silently drop the write, so they bypass
        # the admission filter unconditionally
        if not dirty and not self.policy.admit(key):
            self._count("rejected", "cache.reject")
            return now
        entry = CacheEntry(key=key, nbytes=int(nbytes), payload=payload,
                           data=data, dirty=dirty, prefetched=prefetched,
                           group=group)
        self.entries[key] = entry
        self.total_bytes += entry.nbytes
        self._count("insertions", None)
        if dirty:
            self._dirty[key] = entry.nbytes
            self._dirty_bytes += entry.nbytes
        if group is not None:
            self._groups.setdefault(group, {})[key] = None
        if prefetched:
            self._count("prefetch_issued", "cache.prefetch_issued")
        self.policy.on_insert(key)
        return self._enforce(now)

    def _enforce(self, now: float) -> float:
        """Evict down to the byte budget, then the dirty bound."""
        while self.total_bytes > self.config.capacity_bytes and self.entries:
            victim = self.policy.victim()
            now = self._evict(victim, now)
        while len(self._dirty) > self.config.dirty_max:
            oldest = next(iter(self._dirty))
            now = self.flush_entry(oldest, now)
        return now

    def _evict(self, key: Hashable, now: float) -> float:
        entry = self.entries[key]
        if entry.dirty:
            now = self.flush_entry(key, now)
        self._remove(key)
        self._count("evictions", "cache.evict")
        return now

    def _remove(self, key: Hashable) -> None:
        entry = self.entries.pop(key)
        self.total_bytes -= entry.nbytes
        self._dirty_bytes -= self._dirty.pop(key, 0)
        if entry.group is not None:
            keys = self._groups.get(entry.group)
            if keys is not None:
                keys.pop(key, None)
                if not keys:
                    del self._groups[entry.group]
        self.policy.remove(key)

    def invalidate(self, key: Hashable) -> None:
        """Drop an entry without flushing (the caller is writing fresher
        data through, or tearing the cache down)."""
        if key in self.entries:
            self._remove(key)
            self._count("invalidations", "cache.invalidate")

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def flush_entry(self, key: Hashable, now: float) -> float:
        """Write one dirty entry back through the owner's device path."""
        entry = self.entries.get(key)
        if entry is None or not entry.dirty:
            return now
        if self.flush_fn is None:
            raise RuntimeError("write-back cache has no flush_fn installed")
        now = self.flush_fn(entry, now)
        entry.dirty = False
        self._dirty_bytes -= self._dirty.pop(key, 0)
        self._count("writebacks", "cache.writeback")
        return now

    def flush_all(self, now: float) -> float:
        """Durability fence: every dirty region reaches flash."""
        for key in list(self._dirty):
            now = self.flush_entry(key, now)
        return now

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    @property
    def dirty_bytes(self) -> int:
        """Bytes buffered in the write-back dirty set (the exposure a
        durability fence would have to flush)."""
        return self._dirty_bytes

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def counters_snapshot(self) -> Dict[str, int]:
        return dict(self.counters)

    def report(self) -> Dict[str, object]:
        """Deterministic summary for sweep cells and reports."""
        hits = self.counters["hits"]
        misses = self.counters["misses"]
        demand = hits + misses
        issued = self.counters["prefetch_issued"]
        out: Dict[str, object] = {key: self.counters[key]
                                  for key in COUNTER_KEYS}
        out["entries"] = len(self.entries)
        out["resident_bytes"] = self.total_bytes
        out["dirty"] = len(self._dirty)
        out["hit_rate"] = round(hits / demand, 6) if demand else 0.0
        out["prefetch_accuracy"] = (
            round(self.counters["prefetch_hits"] / issued, 6)
            if issued else 0.0)
        out["policy"] = self.config.policy
        out["capacity_bytes"] = self.config.capacity_bytes
        out["write_back"] = self.config.write_back
        return out
