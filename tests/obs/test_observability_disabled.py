"""The observability spine must be free when absent: with nothing
subscribed to the system's probe, every timed path is bit-identical to
an instrumented run (exact float equality, not approx) — also with a
seeded fault injector attached, where retries and bad blocks run
inside the same chains the probe events are emitted from, and with a
trace, a metrics registry and a live monitor subscribed at once."""

from __future__ import annotations

import pytest

from repro.faults.model import FaultConfig
from repro.nvm.profiles import TINY_TEST
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import Monitor
from repro.runtime.tileop import TileOp
from repro.runtime.trace import TraceRecorder
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)

ALL_SYSTEMS = [BaselineSystem, SoftwareNdsSystem, HardwareNdsSystem,
               OracleSystem]


#: seeded read-retry and program-fail draws, dense enough that the
#: scenario below walks retry ladders and re-places failed programs
FAULTS = FaultConfig(seed=4242, rber_base=5e-3, program_fail_base=0.05)


def _trace_and_metrics(system) -> None:
    system.set_trace(TraceRecorder())
    system.set_metrics(MetricsRegistry())


def _all_three(system) -> None:
    _trace_and_metrics(system)
    system.set_monitor(Monitor(windows=4).attach(system, horizon=2.0))


def _run(factory, subscribe=None, faults=None):
    system = factory(TINY_TEST, store_data=False, faults=faults)
    if factory is OracleSystem:
        system.ingest("d", (64, 64), 4, tile=(16, 16))
    else:
        system.ingest("d", (64, 64), 4)
    system.reset_time()
    if subscribe is not None:
        subscribe(system)
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
    "factory,faults,subscribe",
    [pytest.param(f, None, _trace_and_metrics, id=f.name)
     for f in ALL_SYSTEMS]
    + [pytest.param(f, FAULTS, _trace_and_metrics, id=f"{f.name}+faults")
       for f in ALL_SYSTEMS]
    + [pytest.param(f, FAULTS, _all_three, id=f"{f.name}+faults+monitor")
       for f in ALL_SYSTEMS])
def test_instrumentation_is_timing_neutral(factory, faults, subscribe):
    plain, plain_faults = _run(factory, faults=faults)
    traced, traced_faults = _run(factory, subscribe, faults)
    assert plain == traced
    assert plain_faults == traced_faults
    if faults is not None:
        assert plain_faults["read_retries"] > 0
        assert plain_faults["program_fails"] > 0


@pytest.mark.parametrize("factory", ALL_SYSTEMS,
                         ids=[f.name for f in ALL_SYSTEMS])
def test_detach_restores_uninstrumented_state(factory):
    system = factory(TINY_TEST, store_data=False)
    _all_three(system)
    layers = [layer for layer in system._probed_layers()
              if layer is not None]
    assert system.scheduler.probe is not None
    assert all(layer.probe is not None for layer in layers)
    system.set_trace(None)
    system.set_metrics(None)
    assert all(layer.probe is None for layer in layers)
    assert system.scheduler.probe is not None  # the monitor remains
    system.set_monitor(None)
    assert system.scheduler.probe is None


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
    # per-line busy counters came through the flash probe events
    assert snap["counters"]["timeline.ch0.busy_seconds"] > 0
