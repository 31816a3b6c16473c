"""Derived observability over the trace/metrics spine.

``repro.obs`` turns the raw spans the runtime records into answers:

* :mod:`repro.obs.probe` — the observation bus: one
  :class:`~repro.obs.probe.Probe` per system fans every layer's typed
  events out to the trace, metrics and monitor subscribers
  (``set_trace`` / ``set_metrics`` / ``set_monitor``; nothing
  subscribed ⇒ bit-identical timings);
* :mod:`repro.obs.metrics` — a deterministic Counter/Gauge/Histogram
  registry, the probe's numeric subscriber;
* :mod:`repro.obs.critical_path` — per-op latency attribution: each
  op's ``[start, end)`` is partitioned over the component spans that
  were active, yielding a "where time goes" breakdown per layer;
* :mod:`repro.obs.utilization` — windowed per-resource busy fractions
  (channel/bank heatmap data) from the same spans;
* :mod:`repro.obs.report` — the ``python -m repro report`` backend:
  runs a workload (or loads a saved Chrome trace) and emits breakdown
  tables, histograms and utilization data as text / stable JSON /
  Prometheus text;
* :mod:`repro.obs.monitor` — the live monitor: windowed time-series
  (latency p50/p99, goodput/offered/shed, queue depth, cache, per-
  device busy and GC share) streamed during a run or replayed from a
  trace, behind ``python -m repro monitor``;
* :mod:`repro.obs.slo` — SRE-style SLO policies with multi-window
  burn-rate alert rules firing deterministic ``AlertEvent`` s;
* :mod:`repro.obs.diagnose` — automated bottleneck diagnosis: each
  alert's window span is diffed against the preceding healthy baseline
  to name the dominant layer/device/stream.
"""

from repro.obs.critical_path import (LAYERS, OpAttribution, attribute_op,
                                     classify_span, critical_path)
from repro.obs.diagnose import diagnose_report
from repro.obs.metrics import (DEFAULT_LATENCY_BUCKETS, Counter, Gauge,
                               Histogram, MetricsRegistry)
from repro.obs.monitor import (Monitor, format_monitor, monitor_csv,
                               monitor_json, monitor_prometheus)
from repro.obs.probe import Probe
from repro.obs.slo import AlertEvent, BurnRule, SloPolicy
from repro.obs.utilization import (DEFAULT_WINDOWS, utilization_csv,
                                   utilization_timeline)

__all__ = [
    "Probe", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "LAYERS", "OpAttribution", "attribute_op", "classify_span",
    "critical_path",
    "DEFAULT_WINDOWS", "utilization_timeline", "utilization_csv",
    "Monitor", "format_monitor", "monitor_json", "monitor_csv",
    "monitor_prometheus",
    "SloPolicy", "BurnRule", "AlertEvent",
    "diagnose_report",
]
