"""Edge cases of the device-scoped observation plumbing: scoped probe
prefix collisions, per-device aggregation with a mid-run device kill,
and the monitor's view of both."""

from __future__ import annotations

import pytest

from repro.analysis.loadline_sweep import arrival_process, default_workload
from repro.faults.model import FaultConfig
from repro.faults.plan import FaultPlan
from repro.nvm.profiles import TINY_TEST
from repro.obs.critical_path import device_layer_totals, span_device
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import Monitor
from repro.obs.probe import Probe
from repro.runtime.trace import TraceRecorder
from repro.systems import SoftwareNdsSystem
from repro.traffic.injector import OpenLoopInjector, TrafficStream

HORIZON = 0.02
KILL_AT = HORIZON / 2


def scoped(parent: MetricsRegistry, device: int) -> Probe:
    return Probe(metrics=parent).scoped(device)


class TestScopedProbeEdges:
    def test_scoped_and_direct_names_share_one_metric(self):
        """A ``flash.reads`` count through the device-1 probe and a
        direct ``d1.flash.reads`` are the same counter — the prefix is
        pure namespacing, not a separate registry."""
        parent = MetricsRegistry()
        scoped(parent, 1).count("flash.reads", 2)
        parent.count("d1.flash.reads", 3)
        assert parent.counter("d1.flash.reads").value == 5

    def test_cross_type_collision_through_scope_raises(self):
        parent = MetricsRegistry()
        parent.observe("d0.lat", 1e-5)
        with pytest.raises(ValueError):
            scoped(parent, 0).count("lat")

    def test_sibling_scopes_do_not_collide(self):
        parent = MetricsRegistry()
        scoped(parent, 0).count("ops")
        scoped(parent, 1).count("ops", 4)
        snap = parent.snapshot()["counters"]
        assert snap["d0.ops"] == 1
        assert snap["d1.ops"] == 4

    def test_scoped_line_busy_counters_prefix(self):
        parent = MetricsRegistry()
        scoped(parent, 2).erase("ch0/bk0", 0.0, 1e-5, failed=False)
        snap = parent.snapshot()["counters"]
        assert snap["timeline.d2.ch0/bk0.busy_seconds"] == \
            pytest.approx(1e-5)
        assert snap["timeline.d2.ch0/bk0.reservations"] == 1
        assert snap["d2.flash.blocks_erased"] == 1

    def test_scoped_trace_leaves_op_context_to_the_host(self):
        trace = TraceRecorder()
        host = Probe(trace=trace)
        member = host.scoped(0)
        host.op_begin("serve", 7)
        member.op_begin("inner", 99)
        member.span("link", 0.0, 1e-6, "link_transfer")
        member.op_end()
        host.op_end()
        (span,) = trace.spans
        assert (span.resource, span.stream, span.op_id) == \
            ("d0:link", "serve", 7)
        assert member.monitor is None


def run_with_kill():
    """A 3-device pooled run where d1 dies halfway through."""
    system = SoftwareNdsSystem(
        TINY_TEST, devices=3,
        faults=FaultConfig(parity=True,
                           plan=FaultPlan().kill_device(1, at=KILL_AT)))
    workload = default_workload()
    for ds in workload.datasets():
        system.ingest(ds.name, ds.dims, ds.element_size)
    system.reset_time()
    system._reset_runtime()
    trace = TraceRecorder()
    monitor = Monitor(windows=8, horizon=HORIZON)
    stream = TrafficStream("serve", arrival_process("mmpp", 3000.0, 97),
                           workload.request_factory(), admission_queue=64)
    injector = OpenLoopInjector(system, [stream], horizon=HORIZON,
                                trace=trace, marks=8, monitor=monitor)
    result = injector.run()
    return monitor, trace, result


class TestKilledDeviceAggregation:
    def test_dead_device_stops_accumulating(self):
        monitor, trace, result = run_with_kill()
        assert result.completed > 0, "parity rebuild must keep serving"
        # the raw trace must show no d1 component spans after the kill
        late = [s for s in trace.spans
                if not s.instant and span_device(s.resource) == 1
                and s.start > KILL_AT]
        assert late == []

    def test_device_layer_totals_keep_dead_member(self):
        _, trace, _ = run_with_kill()
        totals = device_layer_totals(trace)
        assert {"d0", "d1", "d2"} <= set(totals)
        # the dead device did work before the kill, none after: its
        # inventory is real but smaller than the survivors'
        def busy(dev):
            return sum(totals[dev].values())
        assert 0 < busy("d1") < busy("d0")
        assert 0 < busy("d1") < busy("d2")

    def test_monitor_device_series_flatlines_after_kill(self):
        monitor, trace, _ = run_with_kill()
        series = monitor.device_series(trace)
        d1 = series["busy_seconds"]["d1"]
        kill_window = monitor.window_of(KILL_AT)
        assert sum(d1[:kill_window]) > 0
        assert sum(d1[kill_window + 1:]) == 0.0
        survivors = series["busy_seconds"]["d0"]
        assert sum(survivors[kill_window + 1:]) > 0

    def test_monitor_json_identical_across_kill_runs(self):
        from repro.obs.monitor import monitor_json
        first = None
        for _ in range(2):
            monitor, trace, _ = run_with_kill()
            payload = monitor_json(monitor.report(trace=trace))
            if first is None:
                first = payload
        assert payload == first
