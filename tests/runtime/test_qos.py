"""QoS on the request spine: weighted shares, SLO accounting, the
drain error policy, and scheduler reset pairing.

The stub-executor tests pin the arbitration *order* (deterministic,
no device); the real-system tests pin the acceptance criteria — a
weight-3 tenant gets ~3x the delivered service of a weight-1 co-tenant
while both are backlogged, and a mid-batch typed storage error never
drops the unexecuted remainder of the batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import UncorrectableError
from repro.faults import FaultConfig, FaultPlan
from repro.nvm import TINY_TEST
from repro.obs.probe import Probe
from repro.runtime import (QosSpec, RequestScheduler, ShardSpec, TileOp,
                           TraceRecorder, percentile)
from repro.systems import SoftwareNdsSystem
from repro.systems.base import SystemOpResult


class _StubExecutor:
    """0.1 s per op, started at the window's earliest time."""

    def __init__(self, cost: float = 0.1):
        self.cost = cost
        self.order = []

    def _execute_op(self, op, earliest_start):
        self.order.append(op.stream)
        return SystemOpResult(start_time=earliest_start,
                              end_time=earliest_start + self.cost,
                              useful_bytes=1, fetched_bytes=1, requests=1)


class _FailingExecutor(_StubExecutor):
    """Raises a typed storage error on the k-th executed op."""

    def __init__(self, fail_at: int):
        super().__init__()
        self.fail_at = fail_at

    def _execute_op(self, op, earliest_start):
        if len(self.order) == self.fail_at:
            self.order.append(op.stream)
            raise UncorrectableError(ppa=None, fail_time=earliest_start)
        return super()._execute_op(op, earliest_start)


def _op(dataset, stream, submit_time=0.0):
    return TileOp.read(dataset, (0,), (1,), submit_time=submit_time,
                       stream=stream)


def _submit_many(sched, counts):
    for name, count in counts.items():
        for i in range(count):
            sched.submit(_op(f"{name}{i}", stream=name))


# ----------------------------------------------------------------------
# weighted arbitration (stub executor)
# ----------------------------------------------------------------------
def test_weighted_share_tracks_weights_while_both_backlogged():
    """Weights 3:1 with proportional backlogs (30 vs 10 equal-cost
    ops): when the light stream exhausts, the heavy stream must have
    been served within 10% of 3x as much."""
    sched = RequestScheduler(_StubExecutor(), arbitration="weighted")
    sched.stream("heavy", weight=3.0)
    sched.stream("light", weight=1.0)
    _submit_many(sched, {"heavy": 30, "light": 10})
    sched.drain()
    order = sched.executor.order
    last_light = max(i for i, name in enumerate(order) if name == "light")
    heavy_before = sum(1 for name in order[:last_light] if name == "heavy")
    # served 3:1 -> ~27 heavy ops before the last light one
    assert 27 <= heavy_before <= 33
    # and total service shares land on the backlog ratio exactly
    report = sched.stream_report()
    assert report["heavy"]["service_share"] == pytest.approx(0.75)
    assert report["light"]["service_share"] == pytest.approx(0.25)


def test_weighted_interleave_is_deterministic():
    def run():
        sched = RequestScheduler(_StubExecutor(), arbitration="weighted")
        sched.stream("a", weight=2.0)
        sched.stream("b", weight=1.0)
        _submit_many(sched, {"a": 8, "b": 4})
        sched.drain()
        return sched.executor.order

    first = run()
    assert first == run()
    # weight-2 "a" is served twice as often while both are backlogged
    assert first[:6].count("a") == 4


def test_weighted_with_unequal_lengths_hands_over_residual_service():
    """A short heavy stream drains first; the light stream then gets
    the device to itself — every remaining op is the light tenant's."""
    sched = RequestScheduler(_StubExecutor(), arbitration="weighted")
    sched.stream("heavy", weight=3.0)
    sched.stream("light", weight=1.0)
    _submit_many(sched, {"heavy": 3, "light": 12})
    sched.drain()
    order = sched.executor.order
    last_heavy = max(i for i, name in enumerate(order) if name == "heavy")
    assert set(order[last_heavy + 1:]) == {"light"}
    assert order.count("light") == 12


def test_round_robin_with_unequal_lengths_keeps_cycling():
    sched = RequestScheduler(_StubExecutor(), arbitration="round_robin")
    _submit_many(sched, {"a": 4, "b": 2})
    done = sched.drain()
    assert [op.stream for op in done] == ["a", "b", "a", "b", "a", "a"]


def test_weight_validation_and_update():
    sched = RequestScheduler(_StubExecutor(), arbitration="weighted")
    with pytest.raises(ValueError, match="weight"):
        sched.stream("t", weight=0.0)
    handle = sched.stream("t", weight=2.0)
    assert sched.stream("t", weight=5.0) is handle
    assert handle.weight == 5.0
    with pytest.raises(ValueError, match="latency target"):
        sched.stream("t", latency_target=-1.0)


# ----------------------------------------------------------------------
# SLO accounting
# ----------------------------------------------------------------------
def test_slo_counts_and_trace_marks():
    trace = TraceRecorder()
    sched = RequestScheduler(_StubExecutor())
    sched.probe = Probe(trace=trace)
    sched.stream("t", queue_depth=1, latency_target=0.25)
    for _ in range(4):
        sched.submit(_op("d", stream="t"))
    sched.drain()
    # depth-1 latencies: 0.1, 0.2, 0.3, 0.4 against a 0.25 s target
    handle = sched.streams["t"]
    assert handle.slo_met == 2 and handle.slo_violated == 2
    report = sched.stream_report()["t"]
    assert report["slo"] == {"target": 0.25, "met": 2, "violated": 2}
    assert report["p50_latency"] == pytest.approx(0.3)
    assert report["p95_latency"] == pytest.approx(0.4)
    marks = trace.instants("slo")
    assert len(marks) == 2
    assert all(m.name == "slo_violation" and m.stream == "t" for m in marks)
    assert [m.start for m in marks] == pytest.approx([0.3, 0.4])


def test_no_target_means_no_slo_key():
    sched = RequestScheduler(_StubExecutor())
    sched.submit(_op("d", stream="t"))
    sched.drain()
    assert "slo" not in sched.stream_report()["t"]


def test_percentile_is_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.95) == 7.0
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 0.0) == 1.0
    # nearest rank round(0.5 * 9) == 4 (banker's rounding) -> 5.0
    assert percentile(values, 0.50) == 5.0
    assert percentile(values, 0.95) == 10.0
    assert percentile(values, 1.0) == 10.0


# ----------------------------------------------------------------------
# drain error policy (the lost-ops regression)
# ----------------------------------------------------------------------
def test_failing_op_is_consumed_and_the_rest_stays_pending():
    """Regression: drain() used to clear the whole batch up front, so
    a typed error on op k silently dropped ops k+1..n."""
    sched = RequestScheduler(_FailingExecutor(fail_at=2), arbitration="fifo")
    ops = [sched.submit(_op(f"d{i}", stream="t")) for i in range(5)]
    with pytest.raises(UncorrectableError):
        sched.drain()
    assert len(sched.executed) == 2
    assert sched.pending == 2                 # the failing op is consumed
    done = sched.drain()                      # resumes where it stopped
    assert [op.dataset for op in done] == ["d3", "d4"]
    assert sched.pending == 0
    assert ops[2].result is None              # the failed op never completed


def test_failing_op_with_real_fault_plan_mid_batch():
    """Op k of n hits a scripted uncorrectable corruption (no parity to
    fall back on); ops k+1..n survive the error and complete on the
    next drain. The clean dataset is sharded away from the corrupted
    channel so only the victim op fails."""
    n = 64
    data = np.random.default_rng(11).integers(
        0, 256, size=(n, n), dtype=np.uint8).astype(np.uint8)
    config = FaultConfig(parity=False,
                         plan=FaultPlan().corrupt_page(0, 0, 0, 0, at=0.01))
    system = SoftwareNdsSystem(TINY_TEST, store_data=True, faults=config)
    system.ingest("dirty", (n, n), 1, data=data)
    system.ingest("clean", (n, n), 1, data=data,
                  shard=ShardSpec(channels=(2, 3)))

    sched = system.scheduler
    ingested = len(sched.executed)            # ingest runs via execute()
    tile = (16, 16)
    sched.submit(TileOp.read("clean", (0, 0), tile, submit_time=0.1,
                             stream="t"))
    sched.submit(TileOp.read("dirty", (0, 0), (n, n), submit_time=0.1,
                             stream="t", with_data=True))
    sched.submit(TileOp.read("clean", (16, 16), tile, submit_time=0.1,
                             stream="t"))
    sched.submit(TileOp.read("clean", (32, 32), tile, submit_time=0.1,
                             stream="t"))
    with pytest.raises(UncorrectableError):
        sched.drain()
    assert len(sched.executed) == ingested + 1
    assert sched.pending == 2
    report = sched.stream_fault_report()
    assert report["t"]["ops_failed"] == 1
    assert report["t"]["uncorrectable_reads"] == 1
    done = sched.drain()
    assert len(done) == 2 and sched.pending == 0
    assert all(op.dataset == "clean" for op in done)


def test_weighted_failing_stream_charges_the_right_tenant():
    """Under weighted arbitration a failing tenant's error counters
    must land on that tenant, and the healthy co-tenant's batch still
    completes."""
    n = 64
    data = np.random.default_rng(11).integers(
        0, 256, size=(n, n), dtype=np.uint8).astype(np.uint8)
    config = FaultConfig(parity=False,
                         plan=FaultPlan().corrupt_page(0, 0, 0, 0, at=0.01))
    system = SoftwareNdsSystem(TINY_TEST, store_data=True, faults=config)
    system.ingest("dirty", (n, n), 1, data=data)
    system.ingest("clean", (n, n), 1, data=data,
                  shard=ShardSpec(channels=(2, 3)))

    sched = system.scheduler
    sched.arbitration = "weighted"
    sched.stream("victim", weight=1.0)
    sched.stream("healthy", weight=3.0)
    sched.submit(TileOp.read("dirty", (0, 0), (n, n), submit_time=0.1,
                             stream="victim", with_data=True))
    for i in range(3):
        sched.submit(TileOp.read("clean", (16 * i, 0), (16, 16),
                                 submit_time=0.1, stream="healthy"))
    with pytest.raises(UncorrectableError):
        while sched.pending:
            sched.drain()
    # finish the healthy tenant's remaining ops
    sched.drain()
    report = sched.stream_fault_report()
    assert report["victim"]["ops_failed"] == 1
    assert report["victim"]["uncorrectable_reads"] == 1
    assert "healthy" not in report
    healthy_ops = [op for op in sched.executed if op.stream == "healthy"]
    assert len(healthy_ops) == 3


# ----------------------------------------------------------------------
# reset pairing
# ----------------------------------------------------------------------
def test_reset_restarts_op_ids_alongside_trace_clear():
    """Regression: reset() forgot the op-id counter, so post-reset ops
    kept counting up and trace spans from different 'runs' could never
    collide — nor line up. Reset + TraceRecorder.clear() must yield
    the same ids (and spans) as a fresh scheduler."""
    trace = TraceRecorder()
    sched = RequestScheduler(_StubExecutor())
    sched.probe = Probe(trace=trace)
    for i in range(3):
        sched.submit(_op(f"d{i}", stream="t"))
    first = sched.drain()
    assert [op.op_id for op in first] == [0, 1, 2]

    sched.reset()
    trace.clear()
    assert sched.pending == 0 and sched.executed == []
    for i in range(2):
        sched.submit(_op(f"e{i}", stream="t"))
    second = sched.drain()
    assert [op.op_id for op in second] == [0, 1]
    # every span in the cleared trace belongs to the post-reset ops
    op_spans = [s for s in trace.spans if s.resource == "ops"]
    assert sorted(s.op_id for s in op_spans) == [0, 1]
    # QoS accounting restarted too
    handle = sched.streams["t"]
    assert handle.service_time == pytest.approx(0.2)
    assert handle.slo_met == 0 and handle.slo_violated == 0


def test_qos_spec_validation():
    spec = QosSpec(weight=2.0, latency_target=1e-3,
                   shard=ShardSpec(channels=(0, 1)))
    assert spec.weight == 2.0
    with pytest.raises(ValueError):
        QosSpec(weight=0.0)
    with pytest.raises(ValueError):
        QosSpec(latency_target=0.0)
