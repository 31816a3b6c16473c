"""The observability spine must be free when absent: with no trace and
no metrics registry attached, every timed path is bit-identical to an
instrumented run (exact float equality, not approx) — also with a
seeded fault injector attached, where retries and bad blocks run
inside the same chains the spans and metrics are emitted from."""

from __future__ import annotations

import pytest

from repro.faults.model import FaultConfig
from repro.nvm.profiles import TINY_TEST
from repro.obs.metrics import MetricsRegistry
from repro.runtime.tileop import TileOp
from repro.runtime.trace import TraceRecorder
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)

ALL_SYSTEMS = [BaselineSystem, SoftwareNdsSystem, HardwareNdsSystem,
               OracleSystem]


#: seeded read-retry and program-fail draws, dense enough that the
#: scenario below walks retry ladders and re-places failed programs
FAULTS = FaultConfig(seed=4242, rber_base=5e-3, program_fail_base=0.05)


def _run(factory, instrumented: bool, faults=None):
    system = factory(TINY_TEST, store_data=False, faults=faults)
    if factory is OracleSystem:
        system.ingest("d", (64, 64), 4, tile=(16, 16))
    else:
        system.ingest("d", (64, 64), 4)
    system.reset_time()
    if instrumented:
        system.set_trace(TraceRecorder())
        system.set_metrics(MetricsRegistry())
    timings = []
    scheduler = system.scheduler
    scheduler.stream("t", 2)
    for origin in ((0, 0), (16, 16), (32, 32), (48, 0)):
        scheduler.submit(TileOp.read("d", origin, (16, 16),
                                     submit_time=0.0, stream="t"))
    for op in scheduler.drain():
        timings.append((op.result.start_time, op.result.end_time))
    write = system.write_tile("d", (0, 0), (16, 16), start_time=1.0)
    timings.append((write.start_time, write.end_time))
    return timings, system.fault_counters()


@pytest.mark.parametrize(
    "factory,faults",
    [pytest.param(f, None, id=f.name) for f in ALL_SYSTEMS]
    + [pytest.param(f, FAULTS, id=f"{f.name}+faults") for f in ALL_SYSTEMS])
def test_instrumentation_is_timing_neutral(factory, faults):
    plain, plain_faults = _run(factory, False, faults)
    traced, traced_faults = _run(factory, True, faults)
    assert plain == traced
    assert plain_faults == traced_faults
    if faults is not None:
        assert plain_faults["read_retries"] > 0
        assert plain_faults["program_fails"] > 0


@pytest.mark.parametrize("factory", ALL_SYSTEMS,
                         ids=[f.name for f in ALL_SYSTEMS])
def test_detach_restores_uninstrumented_state(factory):
    system = factory(TINY_TEST, store_data=False)
    system.set_trace(TraceRecorder())
    system.set_metrics(MetricsRegistry())
    system.set_trace(None)
    system.set_metrics(None)
    assert system.scheduler.trace is None
    assert system.scheduler.metrics is None
    for holder in (system, getattr(system, "ssd", None)):
        flash = getattr(holder, "flash", None)
        if flash is not None:
            assert flash.trace is None
            assert flash.metrics is None
            assert all(line.observer is None
                       for line in flash.channel_lines)


def test_metrics_capture_layer_activity():
    """With a registry attached, every layer a read touches shows up."""
    system = HardwareNdsSystem(TINY_TEST, store_data=False)
    system.ingest("d", (64, 64), 4)
    system.reset_time()
    registry = MetricsRegistry()
    system.set_metrics(registry)
    system.read_tile("d", (16, 16), (32, 32))
    snap = registry.snapshot()
    for metric in ("ctrl.command", "ctrl.translate", "ctrl.assemble",
                   "flash.nand_read", "flash.page_out", "link.transfer",
                   "sched.latency"):
        assert snap["histograms"][metric]["count"] > 0, metric
    assert snap["counters"]["flash.pages_read"] > 0
    assert snap["counters"]["link.bytes"] > 0
    # per-timeline busy counters came through the reserve observer
    assert snap["counters"]["timeline.ch0.busy_seconds"] > 0
