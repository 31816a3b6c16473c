"""The ``repro report`` pipeline: run → attribute → render.

Builds the "where time goes" story for a workload on each of the four
architectures: per-op critical-path attribution over the trace spine,
the metrics-registry snapshot of every instrumented layer, queue-wait
vs service splits per stream, and windowed channel/bank utilization.
The same analysis runs on a saved Chrome trace (``--trace``), so a
trace captured anywhere can be broken down offline.

Everything here is deterministic: no wall clock, no randomness, sorted
keys — two identical runs produce byte-identical JSON reports (the CI
determinism gate diffs them).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

from repro.nvm.profiles import CONSUMER_SSD, DeviceProfile
from repro.obs.critical_path import (LAYERS, critical_path,
                                     device_layer_totals)
from repro.obs.metrics import MetricsRegistry
from repro.obs.utilization import (DEFAULT_WINDOWS, utilization_csv,
                                   utilization_timeline)
from repro.runtime.tileop import TileOp
from repro.runtime.trace import TraceRecorder
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)
from repro.workloads.gemm import GemmWorkload
from repro.workloads.runner import ingest_datasets

__all__ = ["SYSTEM_FACTORIES", "DEFAULT_SYSTEMS", "run_system_report",
           "build_report", "analyze_trace", "format_report",
           "report_json"]

SYSTEM_FACTORIES = {
    "baseline": BaselineSystem,
    "software-nds": SoftwareNdsSystem,
    "hardware-nds": HardwareNdsSystem,
    "software-oracle": OracleSystem,
}

DEFAULT_SYSTEMS = ("baseline", "software-nds", "hardware-nds",
                   "software-oracle")


def _attribution_section(trace: TraceRecorder,
                         include_ops: bool = True) -> Dict[str, object]:
    """Critical-path analysis of one trace, JSON-ready."""
    analysis = critical_path(trace)
    totals = analysis.layer_totals()
    shares = analysis.layer_shares()
    section: Dict[str, object] = {
        "layers": {
            layer: {"seconds": totals.get(layer, 0.0),
                    "share": shares.get(layer, 0.0)}
            for layer in LAYERS if layer in totals
        },
        "dominant_ops": analysis.dominant_counts(),
        "totals": {
            "ops": len(analysis.ops),
            "service_time": analysis.total_service_time,
            "queue_wait": analysis.total_queue_wait,
        },
        # the partition invariant: per-op attributed time == service
        # time; the worst deviation over all ops should be float noise
        "max_partition_error": max(
            (abs(op.attributed_total - op.service_time)
             for op in analysis.ops), default=0.0),
    }
    if include_ops:
        section["ops"] = [
            {
                "op_id": op.op_id,
                "stream": op.stream,
                "label": op.label,
                "queue_wait": op.queue_wait,
                "service_time": op.service_time,
                "dominant": op.dominant,
                "by_layer": dict(sorted(op.by_layer.items())),
            }
            for op in analysis.ops
        ]
    return section


def run_system_report(system_name: str, workload,
                      profile: DeviceProfile = CONSUMER_SSD,
                      queue_depth: int = 8,
                      windows: int = DEFAULT_WINDOWS,
                      include_ops: bool = True,
                      prometheus: bool = False,
                      devices: int = 1) -> Dict[str, object]:
    """Run ``workload`` on one architecture with full observability
    attached and return its report section. ``devices > 1`` runs the
    system over a device pool and adds a per-device breakdown."""
    factory = SYSTEM_FACTORIES.get(system_name)
    if factory is None:
        raise ValueError(f"unknown system {system_name!r}; pick from "
                         f"{sorted(SYSTEM_FACTORIES)}")
    system = factory(profile) if devices <= 1 else factory(
        profile, devices=devices)
    ingest_datasets([workload], system)
    system.reset_time()
    system._reset_runtime()

    trace = TraceRecorder()
    registry = MetricsRegistry()
    system.set_trace(trace)
    system.set_metrics(registry)

    scheduler = system.scheduler
    scheduler.stream(workload.name, queue_depth)
    for fetch in workload.tile_plan():
        scheduler.submit(TileOp.read(fetch.dataset, fetch.origin,
                                     fetch.extents, submit_time=0.0,
                                     stream=workload.name))
    scheduler.drain()

    section: Dict[str, object] = {
        "attribution": _attribution_section(trace, include_ops=include_ops),
        "streams": scheduler.stream_report(),
        "metrics": registry.snapshot(),
        "utilization": utilization_timeline(trace, windows=windows,
                                            flash_only=True),
        "resources": trace.resource_metrics(),
    }
    if devices > 1:
        section["devices"] = {
            "count": devices,
            "layer_seconds": device_layer_totals(trace),
            "report": scheduler.device_report() or {},
        }
    if prometheus:
        prefix = "repro_" + system_name.replace("-", "_")
        section["prometheus"] = registry.to_prometheus(prefix=prefix)
    return section


def build_report(workload=None,
                 systems: Sequence[str] = DEFAULT_SYSTEMS,
                 profile: DeviceProfile = CONSUMER_SSD,
                 queue_depth: int = 8,
                 windows: int = DEFAULT_WINDOWS,
                 include_ops: bool = True,
                 prometheus: bool = False,
                 devices: int = 1) -> Dict[str, object]:
    """The full ``repro report`` payload across the chosen systems."""
    if workload is None:
        workload = GemmWorkload(n=512, tile=128, max_tiles=24)
    report: Dict[str, object] = {
        "workload": workload.name,
        "tiles": len(workload.tile_plan()),
        "queue_depth": queue_depth,
        "windows": windows,
        "systems": {},
    }
    if devices > 1:
        report["devices"] = devices
    for name in systems:
        report["systems"][name] = run_system_report(
            name, workload, profile=profile, queue_depth=queue_depth,
            windows=windows, include_ops=include_ops,
            prometheus=prometheus, devices=devices)
    return report


def analyze_trace(trace: TraceRecorder, windows: int = DEFAULT_WINDOWS,
                  include_ops: bool = True) -> Dict[str, object]:
    """Offline analysis of a saved trace (no metrics registry — only
    what the spans themselves carry)."""
    return {
        "attribution": _attribution_section(trace, include_ops=include_ops),
        "utilization": utilization_timeline(trace, windows=windows,
                                            flash_only=True),
        "resources": trace.resource_metrics(),
    }


def report_json(report: Dict[str, object]) -> str:
    """Byte-stable JSON rendering (sorted keys, fixed separators)."""
    return json.dumps(report, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def write_utilization_csvs(report: Dict[str, object],
                           directory) -> List[Path]:
    """One utilization CSV per system section; returns paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    sections = report.get("systems", {"trace": report})
    for name, section in sections.items():
        timeline = section.get("utilization")
        if not timeline or not timeline.get("resources"):
            continue
        path = directory / f"utilization_{name}.csv"
        path.write_text(utilization_csv(timeline))
        written.append(path)
    return written


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------
def _fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:.1f}"


def _format_attribution(name: str, section: Dict[str, object],
                        lines: List[str]) -> None:
    from repro.analysis.report import format_table

    attribution = section["attribution"]
    totals = attribution["totals"]
    rows = []
    for layer in LAYERS:
        entry = attribution["layers"].get(layer)
        if entry is None:
            continue
        rows.append([layer, _fmt_us(entry["seconds"]),
                     f"{entry['share']:.1%}",
                     str(attribution["dominant_ops"].get(layer, 0))])
    lines.append(format_table(
        ["layer", "time (us)", "share", "ops dominated"], rows,
        title=(f"{name}: where time goes — {totals['ops']} ops, "
               f"service {_fmt_us(totals['service_time'])} us, "
               f"queue wait {_fmt_us(totals['queue_wait'])} us")))


def _format_streams(section: Dict[str, object],
                    lines: List[str]) -> None:
    from repro.analysis.report import format_table

    streams = section.get("streams")
    if not streams:
        return
    rows = [[stream, str(entry["ops"]), _fmt_us(entry["mean_latency"]),
             _fmt_us(entry["p95_latency"]), _fmt_us(entry["mean_queue_wait"]),
             _fmt_us(entry["mean_service"])]
            for stream, entry in sorted(streams.items())]
    lines.append(format_table(
        ["stream", "ops", "mean lat (us)", "p95 lat (us)",
         "mean wait (us)", "mean service (us)"], rows))


def _format_histograms(section: Dict[str, object],
                       lines: List[str]) -> None:
    from repro.analysis.report import format_table

    metrics = section.get("metrics")
    if not metrics or not metrics.get("histograms"):
        return
    rows = []
    for name, hist in sorted(metrics["histograms"].items()):
        if not hist["count"]:
            continue
        rows.append([name, str(hist["count"]),
                     _fmt_us(hist["mean"]), _fmt_us(hist["p50"]),
                     _fmt_us(hist["p99"]), _fmt_us(hist["sum"])])
    if rows:
        lines.append(format_table(
            ["metric", "count", "mean (us)", "p50 (us)", "p99 (us)",
             "total (us)"],
            rows, title="latency histograms"))


def _format_utilization(section: Dict[str, object],
                        lines: List[str]) -> None:
    timeline = section.get("utilization")
    if not timeline or not timeline.get("resources"):
        return
    lines.append("channel/bank utilization (busy fraction per window):")
    for resource, fractions in timeline["resources"].items():
        if "/bk" in resource:
            continue  # keep the text view channel-level; CSV has banks
        cells = "".join("#" if f > 0.66 else "+" if f > 0.33
                        else "." if f > 0.0 else " " for f in fractions)
        mean = sum(fractions) / len(fractions) if fractions else 0.0
        lines.append(f"  {resource:>6} |{cells}| {mean:.0%}")
    lines.append("")


def _format_devices(section: Dict[str, object],
                    lines: List[str]) -> None:
    from repro.analysis.report import format_table

    devices = section.get("devices")
    if not devices:
        return
    report = devices.get("report") or {}
    layer_seconds = devices.get("layer_seconds") or {}
    rows = []
    for name, entry in sorted(report.items()):
        busy = sum((layer_seconds.get(name) or {}).values())
        rows.append([name,
                     "dead" if entry.get("dead") else "live",
                     str(entry.get("subops", 0)),
                     str(entry.get("bytes", 0)),
                     _fmt_us(busy),
                     str(entry.get("degraded_reads", 0)),
                     str(entry.get("rebuilds", 0)),
                     str(entry.get("migrations_in", 0)
                         + entry.get("migrations_out", 0))])
    if rows:
        lines.append(format_table(
            ["device", "state", "subops", "bytes", "busy (us)",
             "degraded", "rebuilds", "migrations"], rows,
            title=f"device pool ({devices.get('count', len(rows))} devices)"))


def format_report(report: Dict[str, object]) -> str:
    """Human-readable rendering of a report payload."""
    lines: List[str] = []
    if "systems" in report:
        lines.append(f"workload {report['workload']}: {report['tiles']} "
                     f"tile reads, queue depth {report['queue_depth']}")
        lines.append("")
        for name, section in report["systems"].items():
            _format_attribution(name, section, lines)
            _format_streams(section, lines)
            _format_histograms(section, lines)
            _format_utilization(section, lines)
            _format_devices(section, lines)
            lines.append("")
    else:
        _format_attribution("trace", report, lines)
        _format_utilization(report, lines)
    return "\n".join(lines)
