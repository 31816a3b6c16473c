"""Observation outputs are pinned to golden digests.

``observation_golden.json`` holds SHA-256 digests of the Chrome trace
JSON, the metrics snapshot JSON and the Prometheus text of three
instrumented scenarios:

* each system under the seeded fault model (retry ladders, program
  fails, GC), with a trace recorder and a metrics registry attached;
* a two-device software-NDS pool with cross-device parity, a mid-run
  device kill and a write-back DRAM tier (device-scoped resource and
  metric names, degraded reads, rebuilds, write-backs);
* the same kind of pool serving open-loop embedding traffic with a
  trace, a registry and a live monitor attached through the injector
  (the monitor JSON is pinned too).

Any change to span order, span arguments, metric names, the flash
``timeline.*`` busy counters or device scoping moves a digest.
Regenerate with ``PYTHONPATH=src python tests/obs/test_observation_golden.py``
only when such a change is intended.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cache.config import CacheConfig
from repro.faults.model import FaultConfig
from repro.faults.plan import FaultPlan
from repro.nvm.profiles import TINY_TEST
from repro.obs.metrics import MetricsRegistry
from repro.runtime.tileop import TileOp
from repro.runtime.trace import TraceRecorder
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)

GOLDEN_PATH = Path(__file__).parent / "observation_golden.json"

ALL_SYSTEMS = [BaselineSystem, SoftwareNdsSystem, HardwareNdsSystem,
               OracleSystem]

#: the seeded fault model of ``test_observability_disabled``
FAULTS = FaultConfig(seed=4242, rber_base=5e-3, program_fail_base=0.05)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(trace: TraceRecorder, registry: MetricsRegistry) -> dict:
    return {
        "trace": _digest(json.dumps(trace.to_chrome(), sort_keys=True)),
        "metrics": _digest(json.dumps(registry.snapshot(), sort_keys=True)),
        "prometheus": _digest(registry.to_prometheus()),
    }


def run_faulted(factory) -> dict:
    system = factory(TINY_TEST, store_data=False, faults=FAULTS)
    if factory is OracleSystem:
        system.ingest("d", (64, 64), 4, tile=(16, 16))
    else:
        system.ingest("d", (64, 64), 4)
    system.reset_time()
    trace, registry = TraceRecorder(), MetricsRegistry()
    system.set_trace(trace)
    system.set_metrics(registry)
    scheduler = system.scheduler
    scheduler.stream("t", 2, latency_target=50e-6)
    for origin in ((0, 0), (16, 16), (32, 32), (48, 0)):
        scheduler.submit(TileOp.read("d", origin, (16, 16),
                                     submit_time=0.0, stream="t"))
    scheduler.drain()
    for i in range(16):
        system.write_tile("d", ((i * 16) % 64, (i * 48) % 64), (16, 16),
                          start_time=1.0 + i * 1e-3)
    return _digests(trace, registry)


def pool_scenario():
    """Two-device parity pool, device 1 killed mid-run, write-back
    tier: reads and writes straddle the kill. Returns ``(system,
    trace, registry)`` after the run."""
    system = SoftwareNdsSystem(
        TINY_TEST, devices=2,
        faults=FaultConfig(parity=True,
                           plan=FaultPlan().kill_device(1, at=2.5e-3)),
        cache=CacheConfig(capacity_bytes=16 << 10, write_back=True,
                          dirty_max=4))
    system.ingest("d", (64, 64), 4)
    system.reset_time()
    trace, registry = TraceRecorder(), MetricsRegistry()
    system.set_trace(trace)
    system.set_metrics(registry)
    for i in range(96):
        origin = ((i * 16) % 64, (i * 7 * 16) % 64)
        if i % 3:
            system.write_tile("d", origin, (16, 16), start_time=i * 1e-4)
        else:
            system.read_tile("d", origin, (16, 16), start_time=i * 1e-4)
    return system, trace, registry


def run_pool() -> dict:
    _, trace, registry = pool_scenario()
    return _digests(trace, registry)


def serving_scenario():
    """Open-loop embedding serving on a three-device parity pool with a
    write-back tier and a device kill, observed by all three
    subscribers at once. Returns ``(system, trace, registry, monitor)``
    after the run."""
    from repro.analysis.loadline_sweep import (arrival_process,
                                               default_workload)
    from repro.obs.monitor import Monitor
    from repro.obs.slo import SloPolicy
    from repro.traffic.injector import OpenLoopInjector, TrafficStream

    horizon = 0.02
    system = SoftwareNdsSystem(
        TINY_TEST, devices=3,
        faults=FaultConfig(parity=True,
                           plan=FaultPlan().kill_device(1, at=horizon / 2)),
        cache=CacheConfig(capacity_bytes=8 << 10, write_back=True))
    workload = default_workload()
    for ds in workload.datasets():
        system.ingest(ds.name, ds.dims, ds.element_size)
    system.reset_time()
    system._reset_runtime()
    trace, registry = TraceRecorder(), MetricsRegistry()
    monitor = Monitor(windows=8, slo=SloPolicy(latency_target=200e-6))
    stream = TrafficStream("serve", arrival_process("mmpp", 3000.0, 97),
                           workload.request_factory(), admission_queue=2,
                           token_rate=4000.0)
    OpenLoopInjector(system, [stream], horizon=horizon, trace=trace,
                     metrics=registry, marks=8, monitor=monitor).run()
    return system, trace, registry, monitor


def run_serving() -> dict:
    from repro.obs.monitor import monitor_json

    _, trace, registry, monitor = serving_scenario()
    out = _digests(trace, registry)
    out["monitor"] = _digest(monitor_json(monitor.report(trace=trace)))
    return out


def all_digests() -> dict:
    out = {f"faulted/{factory.name}": run_faulted(factory)
           for factory in ALL_SYSTEMS}
    out["pool/software-nds"] = run_pool()
    out["serving/software-nds"] = run_serving()
    return out


GOLDEN = (json.loads(GOLDEN_PATH.read_text())
          if GOLDEN_PATH.exists() else {})


@pytest.mark.parametrize("factory", ALL_SYSTEMS,
                         ids=[f.name for f in ALL_SYSTEMS])
def test_faulted_system_observation_golden(factory):
    assert run_faulted(factory) == GOLDEN[f"faulted/{factory.name}"]


def test_pool_observation_golden():
    assert run_pool() == GOLDEN["pool/software-nds"]


def test_serving_observation_golden():
    assert run_serving() == GOLDEN["serving/software-nds"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(all_digests(), indent=2,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
