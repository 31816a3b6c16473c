"""Differential property: the per-op counter ledger against snapshot diffs.

The scheduler attributes DRAM-tier and fault counters to ops from an
:class:`~repro.runtime.ledger.OpLedger` that the tier, the fault
injector and the cluster layer push into. The reference here is the
straightforward way to get the same numbers: wrap the executor of every
scheduler level (a pool owner and each member) and snapshot-diff
``cache_counters()`` / ``fault_counters()`` around each
``_execute_op``.

Over generated configurations — one device or a 2–4 device pool, tier
policy and write-back, a fault plan with parity and ``kill_device``,
rebalancing, several streams, synchronous or batched submission, a
monitor attached or not — the ledger must produce what the reference
produces: per-stream totals, each op's ``result.stats``, the monitor's
windowed cache counts, and key order everywhere. Each pool member's
``subops`` in ``device_report()`` must also equal the ops its own
scheduler executed.

Two attributions the snapshot diffs miss are the exceptions: the cache
deltas of an op that raised, and a pool's first ``cluster_*`` event
while it had no injector and no kill plan (``fault_counters()`` was
still None before that op). When the reference misses one, the test
asserts the invariant the ledger keeps instead: the pool owner's stream
totals sum to the sources' totals.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CACHE_POLICIES, CacheConfig
from repro.cluster import RebalancePolicy
from repro.core.errors import CapacityError
from repro.faults import FaultConfig, FaultPlan
from repro.faults.errors import FaultError
from repro.ftl.mapping import OutOfSpaceError
from repro.nvm import TINY_TEST
from repro.obs.monitor import Monitor
from repro.runtime import TileOp
from repro.systems import BaselineSystem, HardwareNdsSystem, SoftwareNdsSystem

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

N = 64
TILES = ((16, 16), (16, 64), (32, 32))
CACHE_KEYS = ("hits", "misses", "writebacks")  # what the monitor keeps
SYSTEMS = {"software": SoftwareNdsSystem, "hardware": HardwareNdsSystem,
           "baseline": BaselineSystem}
#: what an op of a generated run may raise: injected faults, and the
#: space or placement refusals a dead device can lead to (attribution
#: must match for raising ops too)
OP_ERRORS = (FaultError, CapacityError, OutOfSpaceError, ValueError)


def _deltas(before: Optional[dict], after: Optional[dict]) -> List[tuple]:
    """Nonzero ``after - before`` in ``after``'s key order."""
    before = before or {}
    return [(name, value - before.get(name, 0))
            for name, value in (after or {}).items()
            if value != before.get(name, 0)]


class SnapshotReference:
    """Snapshot-diff attribution for one scheduler level."""

    def __init__(self, system) -> None:
        self.system = system
        self.cache_totals: Dict[str, Dict[str, int]] = {}
        self.fault_totals: Dict[str, Dict[str, int]] = {}
        #: (result, expected ``result.stats.counters`` items)
        self.op_stats: List[tuple] = []
        #: (end time, cache deltas) of every op that completed
        self.op_cache: List[tuple] = []
        #: the snapshots missed an attribution the ledger makes
        self.missed = False
        inner = system._execute_op
        system._execute_op = lambda op, earliest: self._execute(
            inner, op, earliest)

    def _execute(self, inner, op, earliest):
        system = self.system
        faults_before = system.fault_counters()
        cache_before = system.cache_counters()
        try:
            result = inner(op, earliest)
        except Exception:
            fault_deltas = _deltas(faults_before, system.fault_counters())
            if faults_before is not None:
                self._add(self.fault_totals, op.stream, fault_deltas)
                totals = self.fault_totals[op.stream]
                totals["ops_failed"] = totals.get("ops_failed", 0) + 1
            elif fault_deltas:
                self.missed = True
            if (cache_before is not None
                    and _deltas(cache_before, system.cache_counters())):
                self.missed = True
            raise
        fault_deltas = _deltas(faults_before, system.fault_counters())
        if faults_before is not None:
            self._add(self.fault_totals, op.stream, fault_deltas)
        elif fault_deltas:
            self.missed = True
        # the op's own stats carry its fault deltas; for the op the
        # snapshots missed, these are the deltas the ledger adds
        expected = dict(result.stats.counters)
        for name, delta in fault_deltas:
            expected[name] = expected.get(name, 0) + delta
        self.op_stats.append((result, list(expected.items())))
        if cache_before is not None:
            cache_deltas = _deltas(cache_before, system.cache_counters())
            self._add(self.cache_totals, op.stream, cache_deltas)
            self.op_cache.append((result.end_time, dict(cache_deltas)))
        return result

    @staticmethod
    def _add(totals, stream: str, deltas: List[tuple]) -> None:
        entry = totals.setdefault(stream, {})
        for name, delta in deltas:
            entry[name] = entry.get(name, 0) + delta

    def fault_report(self) -> Dict[str, Dict[str, int]]:
        return {name: dict(counters)
                for name, counters in self.fault_totals.items() if counters}

    def cache_report(self) -> Dict[str, Dict[str, object]]:
        report = {}
        for name, counters in self.cache_totals.items():
            if not counters:
                continue
            entry: Dict[str, object] = dict(counters)
            hits = counters.get("hits", 0)
            misses = counters.get("misses", 0)
            entry["hit_rate"] = (round(hits / (hits + misses), 6)
                                 if hits + misses else 0.0)
            report[name] = entry
        return report

    def monitor_cache(self, monitor: Monitor) -> Dict[str, List[int]]:
        series = {key: [0] * monitor.windows for key in CACHE_KEYS}
        for end, deltas in self.op_cache:
            index = monitor.window_of(end)
            for key in CACHE_KEYS:
                series[key][index] += deltas.get(key, 0)
        return series


def _nested_items(report: dict) -> list:
    """A report with its key order made comparable."""
    return [(name, list(entry.items())) for name, entry in report.items()]


@st.composite
def configurations(draw):
    kind = draw(st.sampled_from(sorted(SYSTEMS)))
    devices = draw(st.sampled_from((1, 2, 3, 4)))
    kwargs = {"store_data": kind != "baseline"}
    if devices > 1:
        kwargs["devices"] = devices
        if draw(st.booleans()):
            kwargs["rebalance"] = RebalancePolicy(
                check_interval=draw(st.integers(2, 6)), ratio=1.5,
                min_heat=2.0, decay=1.0)
    if draw(st.booleans()):
        kwargs["cache"] = CacheConfig(
            capacity_bytes=draw(st.sampled_from((2048, 8192, 1 << 20))),
            policy=draw(st.sampled_from(CACHE_POLICIES)),
            write_back=draw(st.booleans()),
            dirty_max=draw(st.integers(1, 6)))
    if draw(st.booleans()):
        plan = FaultPlan()
        for _ in range(draw(st.integers(0, 3))):
            device = draw(st.integers(0, devices - 1))
            at = draw(st.sampled_from((0.0, 1e-3, 5e-3)))
            where = (draw(st.integers(0, 3)), draw(st.integers(0, 1)),
                     draw(st.integers(0, 7)))
            if draw(st.booleans()):
                plan.corrupt_page(*where, draw(st.integers(0, 7)), at=at,
                                  device=device)
            else:
                plan.mark_block_bad(*where, at=at, device=device)
        if devices > 1 and draw(st.booleans()):
            plan.kill_device(draw(st.integers(0, devices - 1)),
                             at=draw(st.sampled_from((0.0, 2e-3))))
        kwargs["faults"] = FaultConfig(
            seed=draw(st.integers(0, 2**16)),
            parity=kind != "baseline" and draw(st.booleans()),
            rber_base=draw(st.sampled_from((5e-5, 1e-3))),
            plan=plan)
    return kind, kwargs


@SETTINGS
@given(config=configurations(),
       streams=st.integers(1, 3),
       batched=st.booleans(),
       monitored=st.booleans(),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 2),
                              st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 2)),
                    min_size=3, max_size=14),
       seed=st.integers(0, 2**16))
def test_ledger_matches_snapshot_reference(config, streams, batched,
                                           monitored, ops, seed):
    kind, kwargs = config
    try:
        system = SYSTEMS[kind](TINY_TEST, **kwargs)
    except (ValueError, NotImplementedError):
        return  # a refused combination: nothing to compare
    functional = kwargs["store_data"]
    levels = [SnapshotReference(system)]
    levels += [SnapshotReference(m) for m in system._member_systems()]
    owner = levels[0]
    monitor = None
    if monitored:
        monitor = Monitor(windows=8).attach(system, horizon=0.02)
        system.set_monitor(monitor)

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2**31, (N, N), dtype=np.int32)
    try:
        system.ingest("M", (N, N), 4, data=data if functional else None)
    except OP_ERRORS:
        pass
    now = 0.0
    pending = []
    for is_write, tile, row, col, stream in ops:
        rows, cols = TILES[tile]
        origin = ((row * 16) % (N - rows + 1), (col * 16) % (N - cols + 1))
        name = f"s{stream % streams}"
        if is_write:
            patch = (rng.integers(0, 2**31, (rows, cols), dtype=np.int32)
                     if functional else None)
            op = TileOp.write("M", origin, (rows, cols), data=patch,
                              submit_time=now, stream=name)
        else:
            op = TileOp.read("M", origin, (rows, cols), submit_time=now,
                             with_data=functional,
                             dtype=np.dtype(np.int32) if functional
                             else None, stream=name)
        if batched:
            pending.append(op)
            continue
        try:
            now = system.scheduler.execute(op).complete_time
        except OP_ERRORS:
            pass
    for op in pending:
        system.scheduler.submit(op)
    while system.scheduler.pending:
        try:
            system.scheduler.drain()
        except OP_ERRORS:
            pass

    for ref in levels:
        sched = ref.system.scheduler
        for result, expected in ref.op_stats:
            assert list(result.stats.counters.items()) == expected
        if ref.missed:
            continue
        assert (_nested_items(sched.stream_fault_report())
                == _nested_items(ref.fault_report()))
        assert (_nested_items(sched.stream_cache_report())
                == _nested_items(ref.cache_report()))
    if monitor is not None:
        assert monitor.series()["cache"] == owner.monitor_cache(monitor)
    # every member op goes through the cluster's one sub-op step, which
    # counts it; the member scheduler's streams record the same ops
    devices = system.device_report() or {}
    for index, member in enumerate(system._member_systems()):
        assert (devices[f"d{index}"]["subops"]
                == sum(handle.ops
                       for handle in member.scheduler.streams.values()))

    # what the ledger guarantees everywhere: every increment the sources
    # made happened inside some op of the owner, and landed on a stream
    sched = system.scheduler
    for report, source in ((sched.stream_cache_report(),
                            system.cache_counters()),
                           (sched.stream_fault_report(),
                            system.fault_counters())):
        summed: Dict[str, int] = {}
        for entry in report.values():
            for name, value in entry.items():
                if name not in ("hit_rate", "ops_failed"):
                    summed[name] = summed.get(name, 0) + value
        assert summed == {k: v for k, v in (source or {}).items() if v}


def test_raising_op_cache_deltas_reach_the_stream():
    """An op that raises still hands its DRAM-tier deltas to its
    stream (its fault deltas always did)."""
    system = SoftwareNdsSystem(
        TINY_TEST, store_data=True, cache=CacheConfig(1 << 20),
        faults=FaultConfig(parity=False,
                           plan=FaultPlan().corrupt_page(0, 0, 0, 0,
                                                         at=0.01)))
    data = np.arange(N * N, dtype=np.int32).reshape(N, N)
    system.ingest("M", (N, N), 4, data=data)
    try:
        system.read_tile("M", (0, 0), (N, N), start_time=0.02,
                         with_data=True, dtype=np.dtype(np.int32))
    except FaultError:
        pass
    else:  # pragma: no cover - the plan must make this read fail
        raise AssertionError("the corrupted page did not fail the read")
    assert system.tier.counters["misses"] == 1
    report = system.scheduler.stream_cache_report()
    assert report == {"main": {"misses": 1, "hit_rate": 0.0}}
    assert system.scheduler.stream_fault_report()["main"]["ops_failed"] == 1


def test_first_cluster_event_without_injector_is_attributed():
    """A pool with no injector and no kill plan attributes its very
    first ``cluster_*`` event (here a migration) to the op that made
    it."""
    system = SoftwareNdsSystem(
        TINY_TEST, store_data=True, devices=4,
        rebalance=RebalancePolicy(check_interval=4, ratio=1.5,
                                  min_heat=2.0, decay=1.0))
    data = np.random.default_rng(21).integers(0, 2**31, size=(N, N),
                                              dtype=np.int32)
    system.ingest("M", (N, N), 4, data=data)
    extent = next(iter(system.cluster.layouts.values())).extents[0]
    now = 0.01
    for _ in range(16):
        now = system.read_tile("M", (extent.row_start, 0), (16, N),
                               start_time=now).end_time
    migrations = system.fault_counters()["cluster_migrations"]
    assert migrations >= 1
    report = system.scheduler.stream_fault_report()
    assert report == {"main": {"cluster_migrations": migrations}}
    per_op = sum(op.result.stats.counters.get("cluster_migrations", 0)
                 for op in system.scheduler.executed)
    assert per_op == migrations
