"""Request-spine scheduler tests.

Covers the queue-depth window primitive, stream management and
arbitration order, schedule determinism, and — most importantly — the
regression that the scheduled path reproduces the seed-era direct call
path bit-for-bit for single-stream use (golden numbers captured on the
pre-refactor tree).
"""

from __future__ import annotations

import pytest

from repro.nvm.profiles import PAPER_PROTOTYPE, TINY_TEST
from repro.runtime import QueueDepthWindow, RequestScheduler, TileOp
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)
from repro.systems.base import SystemOpResult
from repro.workloads import BfsWorkload, GemmWorkload, run_workload

ALL_SYSTEMS = (BaselineSystem, SoftwareNdsSystem, HardwareNdsSystem,
               OracleSystem)


# ----------------------------------------------------------------------
# QueueDepthWindow
# ----------------------------------------------------------------------
def test_window_unbounded_never_gates():
    window = QueueDepthWindow(None)
    for t in (5.0, 1.0, 9.0):
        assert window.earliest(0.0) == 0.0
        window.complete(t)


def test_window_gates_on_kth_previous_completion():
    window = QueueDepthWindow(2)
    assert window.earliest(0.0) == 0.0
    window.complete(10.0)
    assert window.earliest(0.0) == 0.0          # 1 in flight, depth 2
    window.complete(12.0)
    assert window.earliest(0.0) == 10.0         # gated on completions[-2]
    window.complete(14.0)
    assert window.earliest(0.0) == 12.0
    assert window.earliest(13.0) == 13.0        # submit time dominates


def test_window_matches_seed_era_indexing_for_monotone_completions():
    # the seed-era HostIoEngine loop: if index >= depth:
    #     earliest = max(earliest, completions[index - depth])
    # — identical to the sorted window whenever completion times are
    # nondecreasing (every single-stream analytic flow).
    depth = 3
    completions = [1.0, 2.0, 4.0, 6.0, 8.0, 9.0]
    window = QueueDepthWindow(depth)
    for index, done in enumerate(completions):
        expected = 0.0
        if index >= depth:
            expected = max(expected, completions[index - depth])
        assert window.earliest(0.0) == expected
        window.complete(done)


def test_window_gates_on_kth_smallest_for_out_of_order_completions():
    """Regression: under round-robin multi-stream drains end times need
    not be monotone; the gate is the k-th *smallest* completion, not
    the k-th most recently appended one (which can mis-gate)."""
    depth = 3
    window = QueueDepthWindow(depth)
    for done in (1.0, 4.0, 2.0):
        window.complete(done)
    # 3 completions recorded, depth 3: the next request may issue once
    # the first of them (in *time*) finished — at 1.0, not at append
    # order's completions[-3] == 1.0; push the asymmetry further:
    assert window.earliest(0.0) == 1.0
    window.complete(8.0)
    # appended order would gate on completions[-3] == 2.0; sorted order
    # gates on the 2nd smallest of {1,2,4,8} == 2.0 — agree here...
    assert window.earliest(0.0) == 2.0
    window.complete(3.0)
    # ...but now append order [1,4,2,8,3][-3] == 2.0 gates too early
    # (4.0 and 8.0 are still "in flight" at 2.0); the correct gate is
    # the 3rd smallest of {1,2,3,4,8} == 3.0
    assert window.earliest(0.0) == 3.0


def test_window_rejects_bad_depth():
    with pytest.raises(ValueError):
        QueueDepthWindow(0)


# ----------------------------------------------------------------------
# streams and arbitration (stub executor: 0.1 s per op, no contention)
# ----------------------------------------------------------------------
class _StubExecutor:
    def __init__(self):
        self.order = []

    def _execute_op(self, op, earliest_start):
        self.order.append(op.dataset)
        return SystemOpResult(start_time=earliest_start,
                              end_time=earliest_start + 0.1,
                              useful_bytes=1, fetched_bytes=1, requests=1)


def _op(dataset, stream, submit_time=0.0):
    return TileOp.read(dataset, (0,), (1,), submit_time=submit_time,
                       stream=stream)


def test_fifo_drains_in_submission_order():
    sched = RequestScheduler(_StubExecutor(), arbitration="fifo")
    for name in ("a0", "b0", "a1", "b1", "a2"):
        sched.submit(_op(name, stream=name[0]))
    done = sched.drain()
    assert [op.dataset for op in done] == ["a0", "b0", "a1", "b1", "a2"]
    assert sched.pending == 0


def test_round_robin_cycles_streams():
    sched = RequestScheduler(_StubExecutor(), arbitration="round_robin")
    for name in ("a0", "a1", "a2", "b0", "b1", "c0"):
        sched.submit(_op(name, stream=name[0]))
    done = sched.drain()
    assert [op.dataset for op in done] == ["a0", "b0", "c0", "a1", "b1", "a2"]


def test_stream_queue_depth_conflict_raises():
    sched = RequestScheduler(_StubExecutor())
    sched.stream("t", queue_depth=4)
    sched.stream("t")                      # depth omitted: fine
    sched.stream("t", queue_depth=4)       # same depth: fine
    with pytest.raises(ValueError):
        sched.stream("t", queue_depth=8)


def test_bad_arbitration_rejected():
    with pytest.raises(ValueError):
        RequestScheduler(_StubExecutor(), arbitration="priority")


def test_queue_depth_gates_stream_issue():
    sched = RequestScheduler(_StubExecutor())
    sched.stream("t", queue_depth=1)
    for _ in range(3):
        sched.submit(_op("d", stream="t"))
    done = sched.drain()
    # depth 1: each op issues only after the previous one completed
    assert [op.result.start_time for op in done] == \
        pytest.approx([0.0, 0.1, 0.2])
    report = sched.stream_report()
    assert report["t"]["ops"] == 3
    assert report["t"]["makespan"] == pytest.approx(0.3)


def test_stream_metrics_and_reset():
    sched = RequestScheduler(_StubExecutor())
    sched.stream("t", queue_depth=1)
    for _ in range(2):
        sched.submit(_op("d", stream="t", submit_time=0.0))
    sched.drain()
    handle = sched.streams["t"]
    assert handle.completions == pytest.approx([0.1, 0.2])
    assert handle.mean_latency == pytest.approx(0.15)
    sched.reset()
    assert handle.ops == 0 and sched.executed == []
    assert sched.streams["t"] is handle     # streams persist across reset


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("arbitration", ["fifo", "round_robin"])
def test_identical_submissions_yield_identical_timelines(arbitration):
    def run_once():
        system = HardwareNdsSystem(TINY_TEST, store_data=False)
        system.ingest("d", (64, 64), 4)
        system.reset_time()
        sched = system.scheduler
        sched.arbitration = arbitration
        for stream in ("t0", "t1"):
            sched.stream(stream, queue_depth=2)
        for i in range(4):
            for stream in ("t0", "t1"):
                sched.submit(TileOp.read("d", (16 * (i % 4), 0), (16, 16),
                                         submit_time=0.0, stream=stream))
        sched.drain()
        return {name: handle.completions
                for name, handle in sched.streams.items()}

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# single-stream equivalence with the pre-refactor direct call path
# (golden numbers captured on the seed tree, PAPER_PROTOTYPE profile)
# ----------------------------------------------------------------------
GOLDEN_READ_END = {
    "baseline": 0.0011632630095238141,
    "software-nds": 0.0002552320380952381,
    "hardware-nds": 0.0002040768,
    "software-oracle": 0.0002175320380952381,
}

GOLDEN_WRITE_END = {
    "baseline": 0.0002380512380952381,
    "software-nds": 0.00022094780952380954,
    "hardware-nds": 0.00018334000000000002,
    "software-oracle": 0.000110784,
}

GOLDEN_GEMM = {
    "baseline": (0.025959174710149684, 0.02590439978834606),
    "software-nds": (0.00176344076729316, 0.0017086658454895317),
    "hardware-nds": (0.001622963510150303, 0.0015681885883466749),
    "software-oracle": (0.0017022407672931592, 0.0016474658454895311),
}

GOLDEN_BFS = {
    "baseline": (0.0010215341561904759, 0.0009790483961904762),
    "software-nds": (0.0017686823466666658, 0.001726196586666665),
    "hardware-nds": (0.0017686823466666658, 0.001726196586666665),
    "software-oracle": (0.0010215341561904759, 0.0009790483961904762),
}


@pytest.mark.parametrize("cls", ALL_SYSTEMS)
def test_read_tile_matches_seed_golden(cls):
    system = cls(PAPER_PROTOTYPE, store_data=False)
    extra = {"tile": (256, 256)} if cls is OracleSystem else {}
    system.ingest("d", (1024, 1024), 4, **extra)
    system.reset_time()
    result = system.read_tile("d", (256, 256), (256, 256))
    assert result.end_time == pytest.approx(GOLDEN_READ_END[system.name],
                                            abs=1e-9)


@pytest.mark.parametrize("cls", ALL_SYSTEMS)
def test_write_tile_matches_seed_golden(cls):
    system = cls(TINY_TEST, store_data=False)
    extra = {"tile": (16, 16)} if cls is OracleSystem else {}
    system.ingest("d", (64, 64), 4, **extra)
    system.reset_time()
    result = system.write_tile("d", (16, 16), (16, 16))
    assert result.end_time == pytest.approx(GOLDEN_WRITE_END[system.name],
                                            abs=1e-9)


@pytest.mark.parametrize("cls", ALL_SYSTEMS)
def test_gemm_run_matches_seed_golden(cls):
    result = run_workload(GemmWorkload(n=1024, tile=256, max_tiles=24),
                          cls(PAPER_PROTOTYPE, store_data=False))
    total, idle = GOLDEN_GEMM[result.system_name]
    assert result.total_time == pytest.approx(total, abs=1e-9)
    assert result.kernel_idle == pytest.approx(idle, abs=1e-9)


@pytest.mark.parametrize("cls", ALL_SYSTEMS)
def test_bfs_run_matches_seed_golden(cls):
    result = run_workload(BfsWorkload(nodes=1024),
                          cls(PAPER_PROTOTYPE, store_data=False))
    total, idle = GOLDEN_BFS[result.system_name]
    assert result.total_time == pytest.approx(total, abs=1e-9)
    assert result.kernel_idle == pytest.approx(idle, abs=1e-9)


def test_scheduled_stream_equals_direct_facade():
    """A drained single stream (unbounded depth) reproduces the exact
    end times of sequential read_tile calls on a fresh system."""
    direct = HardwareNdsSystem(TINY_TEST, store_data=False)
    direct.ingest("d", (64, 64), 4)
    direct.reset_time()
    origins = [(0, 0), (16, 16), (32, 0), (48, 48)]
    direct_ends = [direct.read_tile("d", o, (16, 16)).end_time
                   for o in origins]

    scheduled = HardwareNdsSystem(TINY_TEST, store_data=False)
    scheduled.ingest("d", (64, 64), 4)
    scheduled.reset_time()
    sched = scheduled.scheduler
    for origin in origins:
        sched.submit(TileOp.read("d", origin, (16, 16), submit_time=0.0,
                                 stream="solo"))
    done = sched.drain()
    assert [op.result.end_time for op in done] == \
        pytest.approx(direct_ends, abs=1e-12)
