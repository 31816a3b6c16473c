"""Op-scoped counter ledger: per-op cache and fault deltas by push.

Every :class:`~repro.runtime.scheduler.RequestScheduler` owns one
:class:`OpLedger`. While an op executes, the counter sources of the
scheduler's system — the DRAM tier
(:class:`~repro.cache.tier.HostTierCache`), the flash fault injector
(:class:`~repro.faults.injector.FaultInjector`) and, on a device pool,
the cluster translation layer's ``cluster_*`` counts — push each
increment into the ledger as it happens; the scheduler closes the
ledger after the op and attributes the op's deltas to its stream and
its ``SystemOpResult.stats``. Between ops nothing is recorded.

A pool member's ledger has the pool owner's ledger as its ``parent``.
An increment lands in every ledger of that chain with an op open, so a
member's scheduler sees only its own tier and injector while the owner
sees the sum over its members plus the cluster counts.

Deltas come out in the order the sources' cumulative counter dicts
list their keys (the tier's ``COUNTER_KEYS``; each member injector in
device order, then ``cluster_*``) — the order reports and per-op stats
have always rendered them in.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

__all__ = ["OpLedger"]

#: (key prefix, a source's live cumulative counter dict)
Source = Tuple[str, Dict[str, int]]


def _no_fault_source() -> bool:
    return False


class OpLedger:
    """Cache and fault counter increments of the executing op."""

    __slots__ = ("parent", "cache", "faults", "cache_sources",
                 "fault_sources", "fault_source")

    def __init__(self) -> None:
        #: the pool owner's ledger when this one belongs to a pool member
        self.parent: Optional[OpLedger] = None
        #: increments of the open op (None while no op is open)
        self.cache: Optional[Dict[str, int]] = None
        self.faults: Optional[Dict[str, int]] = None
        #: where the keys come from, in report order
        self.cache_sources: Tuple[Source, ...] = ()
        self.fault_sources: Tuple[Source, ...] = ()
        #: whether the executor has a fault source right now (an
        #: injector, a pool kill plan, or ``cluster_*`` counts); only
        #: then does an op open its stream's fault entry or count
        #: ``ops_failed``
        self.fault_source: Callable[[], bool] = _no_fault_source

    # ------------------------------------------------------------------
    # push side (the counter sources)
    # ------------------------------------------------------------------
    def count_cache(self, key: str, amount: int = 1) -> None:
        ledger = self
        while ledger is not None:
            frame = ledger.cache
            if frame is not None:
                frame[key] = frame.get(key, 0) + amount
            ledger = ledger.parent

    def count_fault(self, key: str, amount: int = 1) -> None:
        ledger = self
        while ledger is not None:
            frame = ledger.faults
            if frame is not None:
                frame[key] = frame.get(key, 0) + amount
            ledger = ledger.parent

    # ------------------------------------------------------------------
    # op scope (the scheduler)
    # ------------------------------------------------------------------
    def open(self) -> None:
        """Start recording an op (ops of one scheduler never nest)."""
        self.cache = {}
        self.faults = {}

    def close(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Stop recording; returns the op's ``(cache, faults)`` deltas
        in report order."""
        cache, faults = self.cache, self.faults
        self.cache = self.faults = None
        if len(cache) > 1:
            cache = _ordered(cache, self.cache_sources)
        if len(faults) > 1:
            faults = _ordered(faults, self.fault_sources)
        return cache, faults


def _ordered(delta: Dict[str, int],
             sources: Tuple[Source, ...]) -> Dict[str, int]:
    """``delta`` keyed in the sources' order (a key shared by several
    sources sits where it first appears)."""
    out: Dict[str, int] = {}
    for prefix, counters in sources:
        for key in counters:
            name = prefix + key
            if name in delta and name not in out:
                out[name] = delta[name]
                if len(out) == len(delta):
                    return out
    return {**out, **delta}
