"""Command-line front end: reproduce the paper's experiments standalone.

The analogue of the paper artifact's ``run_evaluation.sh``::

    python -m repro fig3              # component rate curves
    python -m repro fig9              # microbenchmarks
    python -m repro fig10             # end-to-end speedups (all ten apps)
    python -m repro fig10 -w GEMM BFS # a subset
    python -m repro overhead          # §7.3 latency/space overhead
    python -m repro table1            # workload inventory
    python -m repro all               # everything

Each command prints the same rows/series the paper's figure reports.
The pytest benchmarks (``pytest benchmarks/ --benchmark-only``) run the
same drivers with paper-vs-measured assertions on top.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.calibration import PAPER
from repro.analysis.experiments import (endtoend_sweep, fig3_series,
                                        micro_read_bandwidths,
                                        micro_write_bandwidths,
                                        overhead_latencies)
from repro.analysis.report import format_bandwidth, format_table

__all__ = ["main"]


def _cmd_fig3(args: argparse.Namespace) -> None:
    series = fig3_series()
    if getattr(args, "csv", None):
        from repro.analysis.export import export_series
        out = export_series(series, Path(args.csv) / "fig3.csv")
        print(f"wrote {out}")
    dims = sorted(next(iter(series.values())))
    rows = [[f"{d}x{d}"]
            + [format_bandwidth(series[key][d])
               for key in ("cuda", "tensor", "nvmeof", "internal_32ch",
                           "consumer_8ch")]
            for d in dims]
    print(format_table(
        ["matrix", "CUDA cores", "Tensor Cores", "NVMe-oF",
         "32ch internal", "8ch external"], rows,
        title="Fig 3: effective data processing rate / IO bandwidth"))


def _cmd_fig9(args: argparse.Namespace) -> None:
    n = args.size
    reads = micro_read_bandwidths(n=n)
    rows = [[pattern]
            + [format_bandwidth(values[k])
               for k in ("baseline", "software", "hardware")]
            for pattern, values in reads.items()]
    print(format_table(["pattern", "baseline", "software NDS",
                        "hardware NDS"], rows,
                       title=f"Fig 9(a-c): {n}x{n} doubles"))
    writes = micro_write_bandwidths(n=n)
    if getattr(args, "csv", None):
        from repro.analysis.export import export_micro
        out = export_micro(reads, writes, Path(args.csv) / "fig9.csv")
        print(f"wrote {out}")
    print()
    print(format_table(
        ["system", "write bandwidth", "vs baseline"],
        [[k, format_bandwidth(v), f"{v / writes['baseline']:.2f}x"]
         for k, v in writes.items()],
        title="Fig 9(d): whole-matrix write"))
    print(f"\npaper anchors: baseline row ~{PAPER.baseline_row_read_gbs} "
          f"GB/s, software ~{PAPER.software_row_read_gbs} GB/s, write "
          f"{PAPER.baseline_write_mbs:.0f} MB/s -{PAPER.software_write_penalty:.0%}"
          f"/-{PAPER.hardware_write_penalty:.0%}")


def _cmd_fig10(args: argparse.Namespace) -> None:
    sweep = endtoend_sweep(workload_names=args.workloads or None)
    if getattr(args, "csv", None):
        from repro.analysis.export import export_sweep
        out = export_sweep(sweep, Path(args.csv) / "fig10.csv")
        print(f"wrote {out}")
    rows = []
    collected = {"software-nds": [], "software-oracle": [],
                 "hardware-nds": []}
    for name, per_system in sweep.items():
        row = [name]
        for key in ("software-nds", "software-oracle", "hardware-nds"):
            value = per_system[key][0]
            collected[key].append(value)
            row.append(f"{value:.2f}x")
        base_idle = per_system["baseline"][1]
        if base_idle > 0:
            row.append(f"{1 - per_system['hardware-nds'][1] / base_idle:+.0%}")
        else:
            row.append("-")
        rows.append(row)
    print(format_table(
        ["workload", "software NDS", "oracle", "hardware NDS",
         "hw idle reduction"], rows,
        title="Fig 10: end-to-end speedup over the baseline"))
    if len(rows) > 1:
        means = {k: statistics.mean(v) for k, v in collected.items()}
        print(f"\nmeans: software {means['software-nds']:.2f}x "
              f"(paper {PAPER.software_nds_speedup}), hardware "
              f"{means['hardware-nds']:.2f}x (paper "
              f"{PAPER.hardware_nds_speedup})")


def _cmd_overhead(_args: argparse.Namespace) -> None:
    numbers = overhead_latencies()
    base = numbers["baseline"]
    rows = [[name, f"{numbers[name] * 1e6:.1f}",
             f"{(numbers[name] - base) * 1e6:+.1f}"]
            for name in ("baseline", "software", "hardware")]
    print(format_table(["system", "single-page latency (us)",
                        "adder vs baseline (us)"], rows,
                       title="Sec 7.3: worst-case request latency"))
    print(f"\nSTL space overhead: {numbers['space_overhead']:.3%} "
          f"(paper ~{PAPER.stl_space_overhead_fraction:.1%}); paper "
          f"adders: {PAPER.software_stl_latency_us:.0f} us software, "
          f"{PAPER.hardware_stl_latency_us:.0f} us hardware")


def _cmd_table1(_args: argparse.Namespace) -> None:
    from repro.workloads import all_workloads
    rows = []
    for wl in all_workloads():
        datasets = " + ".join("x".join(map(str, ds.dims))
                              for ds in wl.datasets())
        subs = sorted({f.extents for f in wl.tile_plan()})
        rows.append([wl.name, wl.category, wl.data_dim_label,
                     wl.kernel_dim_label, datasets,
                     " / ".join("x".join(map(str, s)) for s in subs)])
    print(format_table(["workload", "category", "data", "kernel",
                        "dataset (scaled)", "sub-dimension (scaled)"],
                       rows, title="Table 1 (scaled)"))


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.obs.report import (analyze_trace, build_report,
                                  format_report, report_json,
                                  write_utilization_csvs)

    if args.trace:
        from repro.runtime.trace import TraceRecorder
        report = analyze_trace(TraceRecorder.load(args.trace),
                               windows=args.windows,
                               include_ops=not args.no_ops)
    else:
        from repro.workloads.gemm import GemmWorkload
        workload = GemmWorkload(n=args.size, tile=args.tile,
                                max_tiles=args.tiles)
        report = build_report(workload=workload, systems=args.systems,
                              queue_depth=args.queue_depth,
                              windows=args.windows,
                              include_ops=not args.no_ops,
                              prometheus=bool(args.prom),
                              devices=args.devices)
    if args.prom:
        if args.trace:
            print("--prom needs a live run (saved traces carry no "
                  "metrics registry); skipped", file=sys.stderr)
        else:
            text = "".join(section.pop("prometheus", "")
                           for section in report["systems"].values())
            prom_path = Path(args.prom)
            prom_path.parent.mkdir(parents=True, exist_ok=True)
            prom_path.write_text(text)
            print(f"wrote {args.prom}")
    if args.json:
        json_path = Path(args.json)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(report_json(report))
        print(f"wrote {args.json}")
    if args.csv_dir:
        for path in write_utilization_csvs(report, args.csv_dir):
            print(f"wrote {path}")
    if not args.json or args.text:
        print(format_report(report))


def _cmd_loadtest(args: argparse.Namespace) -> None:
    from repro.analysis.loadline_sweep import (format_loadline,
                                               loadline_sweep, sweep_json)
    from repro.workloads.embedding import EmbeddingWorkload
    workload = EmbeddingWorkload(
        num_embeddings=args.rows, embedding_dim=args.dim,
        pooling_factor=args.pooling_factor, batch_size=args.batch_size,
        alpha=args.alpha, update_fraction=args.update_fraction,
        seed=args.seed)
    cache = None
    if args.cache_mb:
        from repro.cache.config import CacheConfig
        cache = CacheConfig(capacity_bytes=int(args.cache_mb * 2**20),
                            policy=args.cache_policy,
                            write_back=args.cache_write_back,
                            prefetch=args.cache_prefetch)
    sweep = loadline_sweep(systems=args.systems,
                           device_counts=args.devices,
                           base_rate=args.base_rate,
                           growth=args.growth,
                           max_points=args.points,
                           horizon=args.horizon,
                           admission_queue=args.admission_queue or None,
                           arrival=args.arrival,
                           workload=workload,
                           seed=args.seed,
                           tenants=args.tenants,
                           cache=cache)
    print(format_loadline(sweep))
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(sweep_json(sweep))
        print(f"wrote {args.json}")


def _run_monitor_scenario(args: argparse.Namespace, policy):
    """Run the scripted live-monitor scenario and return (trace, payload).

    The defaults reproduce the worked scenario from
    ``docs/OBSERVABILITY.md``: a bursty MMPP embedding-serving stream
    pushed past the knee so the burn-rate rules fire; ``--kill-device``
    and ``--cache-mb --cache-write-back`` layer a mid-run device loss
    and a write-back DRAM tier on top.
    """
    from repro.analysis.loadline_sweep import (arrival_process,
                                               default_workload)
    from repro.nvm.profiles import TINY_TEST
    from repro.obs.monitor import Monitor
    from repro.obs.report import SYSTEM_FACTORIES
    from repro.runtime.trace import TraceRecorder
    from repro.traffic.injector import OpenLoopInjector, TrafficStream

    factory = SYSTEM_FACTORIES.get(args.system)
    if factory is None:
        raise SystemExit(f"unknown system {args.system!r}; pick from "
                         f"{sorted(SYSTEM_FACTORIES)}")
    kwargs = {}
    if args.devices > 1:
        kwargs["devices"] = args.devices
    if args.cache_mb:
        from repro.cache.config import CacheConfig
        kwargs["cache"] = CacheConfig(
            capacity_bytes=int(args.cache_mb * 2**20),
            write_back=args.cache_write_back)
    if args.kill_device is not None:
        from repro.faults.model import FaultConfig
        from repro.faults.plan import FaultPlan
        if args.devices < 2:
            raise SystemExit("--kill-device needs --devices >= 2 "
                             "(parity rebuild requires surviving peers)")
        kill_at = (args.kill_at if args.kill_at is not None
                   else args.horizon / 2)
        kwargs["faults"] = FaultConfig(parity=True,
                                       plan=FaultPlan().kill_device(
                                           args.kill_device, at=kill_at))
    system = factory(TINY_TEST, **kwargs)
    workload = default_workload(seed=args.seed)
    if args.system == "software-oracle":
        for ds in workload.datasets():
            system.ingest(ds.name, ds.dims, ds.element_size,
                          tile=(1, workload.embedding_dim))
    else:
        for ds in workload.datasets():
            system.ingest(ds.name, ds.dims, ds.element_size)
    system.reset_time()
    system._reset_runtime()

    if args.tenants <= 1:
        streams = [TrafficStream(
            "serve", arrival_process(args.arrival, args.rate, args.seed),
            workload.request_factory(),
            admission_queue=args.admission_queue or None)]
    else:
        streams = [TrafficStream(
            f"serve{t}",
            arrival_process(args.arrival, args.rate / args.tenants,
                            args.seed + 7919 * t),
            workload.request_factory(salt=t),
            admission_queue=args.admission_queue or None)
            for t in range(args.tenants)]
    monitor = Monitor(windows=args.windows, slo=policy,
                      horizon=args.horizon)
    trace = TraceRecorder()
    injector = OpenLoopInjector(system, streams, horizon=args.horizon,
                                trace=trace, marks=args.windows,
                                monitor=monitor)
    injector.run()
    return trace, monitor.report(trace=trace)


def _cmd_monitor(args: argparse.Namespace) -> None:
    from repro.obs.monitor import (Monitor, format_monitor, monitor_csv,
                                   monitor_json, monitor_prometheus)
    from repro.obs.slo import SloPolicy

    policy = SloPolicy(latency_target=args.slo_target_us * 1e-6,
                       target_fraction=args.slo_fraction)
    if args.trace:
        from repro.runtime.trace import TraceRecorder
        trace = TraceRecorder.load(args.trace)
        # an explicit --horizon pins the window grid (exact live-run
        # match); otherwise infer it from the trace extent
        monitor = Monitor.from_trace(trace, windows=args.windows,
                                     slo=policy, horizon=args.horizon)
        payload = monitor.report(trace=trace)
    else:
        if args.horizon is None:
            args.horizon = 0.08
        trace, payload = _run_monitor_scenario(args, policy)
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(monitor_json(payload))
        print(f"wrote {args.json}")
    if args.csv:
        out = Path(args.csv)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(monitor_csv(payload))
        print(f"wrote {args.csv}")
    if args.prom:
        out = Path(args.prom)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(monitor_prometheus(payload))
        print(f"wrote {args.prom}")
    if args.trace_out:
        out = Path(args.trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        trace.save(out)
        print(f"wrote {args.trace_out}")
    if not args.json or args.text:
        print(format_monitor(payload))


def _cmd_scorecard(_args: argparse.Namespace) -> None:
    from repro.analysis.scorecard import run_scorecard
    rows = []
    for anchor in run_scorecard():
        rows.append([anchor.section, anchor.name, f"{anchor.paper:g}",
                     f"{anchor.measured:.3g}", f"{anchor.delta:+.0%}",
                     "pass" if anchor.passed else "CHECK"])
    print(format_table(["section", "anchor", "paper", "measured",
                        "delta", "verdict"], rows,
                       title="Reproduction scorecard"))


def _cmd_all(args: argparse.Namespace) -> None:
    for command in (_cmd_table1, _cmd_fig3, _cmd_fig9, _cmd_overhead,
                    _cmd_fig10):
        command(args)
        print()


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.utilization import DEFAULT_WINDOWS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'NDS: N-Dimensional Storage' (MICRO 2021)")
    sub = parser.add_subparsers(dest="command", required=True)

    fig3 = sub.add_parser("fig3", help="component rate curves")
    fig3.add_argument("--csv", default=None, metavar="DIR",
                      help="also write tidy CSV into DIR")
    fig3.set_defaults(fn=_cmd_fig3)
    fig9 = sub.add_parser("fig9", help="I/O microbenchmarks")
    fig9.add_argument("--size", type=int, default=4096,
                      help="matrix dimension (default 4096)")
    fig9.add_argument("--csv", default=None, metavar="DIR",
                      help="also write tidy CSV into DIR")
    fig9.set_defaults(fn=_cmd_fig9)
    fig10 = sub.add_parser("fig10", help="end-to-end workloads")
    fig10.add_argument("-w", "--workloads", nargs="*", default=None,
                       help="subset of workload names (default: all)")
    fig10.add_argument("--csv", default=None, metavar="DIR",
                       help="also write tidy CSV into DIR")
    fig10.set_defaults(fn=_cmd_fig10)
    report = sub.add_parser(
        "report", help="critical-path / metrics / utilization report")
    report.add_argument("--trace", default=None, metavar="PATH",
                        help="analyze a saved Chrome trace JSON instead "
                             "of running a workload")
    report.add_argument("--systems", nargs="*",
                        default=["baseline", "software-nds", "hardware-nds",
                                 "software-oracle"],
                        help="systems to run (default: all four)")
    report.add_argument("--size", type=int, default=512,
                        help="GEMM matrix dimension (default 512)")
    report.add_argument("--tile", type=int, default=128,
                        help="GEMM tile dimension (default 128)")
    report.add_argument("--tiles", type=int, default=24,
                        help="max tile fetches (default 24)")
    report.add_argument("--queue-depth", type=int, default=8,
                        help="per-stream queue depth (default 8)")
    report.add_argument("--devices", type=int, default=1,
                        help="device-pool size (default 1 = single "
                             "device; >1 adds a per-device breakdown)")
    report.add_argument("--windows", type=int, default=DEFAULT_WINDOWS,
                        help="utilization windows "
                             f"(default {DEFAULT_WINDOWS})")
    report.add_argument("--json", default=None, metavar="PATH",
                        help="write the byte-stable JSON report to PATH")
    report.add_argument("--csv-dir", default=None, metavar="DIR",
                        help="write per-system utilization CSVs into DIR")
    report.add_argument("--prom", default=None, metavar="PATH",
                        help="write Prometheus text-format metrics to PATH")
    report.add_argument("--no-ops", action="store_true",
                        help="omit the per-op attribution list")
    report.add_argument("--text", action="store_true",
                        help="print the text report even with --json")
    report.set_defaults(fn=_cmd_report)
    loadtest = sub.add_parser(
        "loadtest", help="open-loop embedding-serving load line "
                         "(offered load vs goodput and tails)")
    loadtest.add_argument("--systems", nargs="*",
                          default=["baseline", "software-nds",
                                   "hardware-nds", "software-oracle"],
                          help="systems to ramp (default: all four)")
    loadtest.add_argument("--devices", type=int, nargs="*", default=[1],
                          help="device-pool sizes to ramp (default: 1)")
    loadtest.add_argument("--arrival", default="poisson",
                          choices=["poisson", "mmpp", "diurnal"],
                          help="arrival process shape (default: poisson)")
    loadtest.add_argument("--base-rate", type=float, default=400.0,
                          help="starting offered rate, requests/s "
                               "(default 400; scaled by device count)")
    loadtest.add_argument("--growth", type=float, default=2.0,
                          help="rate multiplier per ramp point (default 2)")
    loadtest.add_argument("--points", type=int, default=8,
                          help="max ramp points per series (default 8)")
    loadtest.add_argument("--horizon", type=float, default=0.05,
                          help="injection horizon, model seconds "
                               "(default 0.05)")
    loadtest.add_argument("--tenants", type=int, default=1,
                          help="co-running traffic streams splitting the "
                               "offered rate (default 1)")
    loadtest.add_argument("--admission-queue", type=int, default=64,
                          help="per-stream admission queue bound "
                               "(default 64; 0 = unbounded)")
    loadtest.add_argument("--rows", type=int, default=256,
                          help="embedding rows per table (default 256)")
    loadtest.add_argument("--dim", type=int, default=16,
                          help="embedding dimension (default 16)")
    loadtest.add_argument("--batch-size", type=int, default=2,
                          help="bags per closed-loop batch (default 2)")
    loadtest.add_argument("--pooling-factor", type=int, default=2,
                          help="row lookups per bag (default 2)")
    loadtest.add_argument("--alpha", type=float, default=1.05,
                          help="zipf skew of row popularity (default 1.05)")
    loadtest.add_argument("--update-fraction", type=float, default=0.25,
                          help="share of requests that also write their "
                               "rows back (default 0.25)")
    loadtest.add_argument("--seed", type=int, default=97,
                          help="traffic seed (default 97)")
    loadtest.add_argument("--cache-mb", type=float, default=0,
                          help="host DRAM tier capacity in MiB "
                               "(default 0 = no tier)")
    loadtest.add_argument("--cache-policy", default="lru",
                          choices=["lru", "clock", "admission"],
                          help="tier eviction policy (default lru)")
    loadtest.add_argument("--cache-write-back", action="store_true",
                          help="buffer writes in the tier instead of "
                               "writing through")
    loadtest.add_argument("--cache-prefetch", type=int, default=0,
                          help="N-D neighbor prefetch depth "
                               "(default 0 = off)")
    loadtest.add_argument("--json", default=None, metavar="PATH",
                          help="write the byte-stable sweep JSON to PATH")
    loadtest.set_defaults(fn=_cmd_loadtest)
    monitor = sub.add_parser(
        "monitor", help="live windowed monitor: time-series, SLO "
                        "burn-rate alerts, bottleneck diagnosis")
    monitor.add_argument("--trace", default=None, metavar="PATH",
                         help="replay a saved Chrome trace through the "
                              "monitor instead of running live")
    monitor.add_argument("--system", default="software-nds",
                         help="system to run live (default software-nds)")
    monitor.add_argument("--devices", type=int, default=1,
                         help="device-pool size (default 1)")
    monitor.add_argument("--rate", type=float, default=4000.0,
                         help="offered rate, requests/s (default 4000 — "
                              "past the TINY_TEST knee so alerts fire)")
    monitor.add_argument("--arrival", default="mmpp",
                         choices=["poisson", "mmpp", "diurnal"],
                         help="arrival shape (default: mmpp burst)")
    monitor.add_argument("--horizon", type=float, default=None,
                         help="injection horizon, model seconds "
                              "(default 0.08; with --trace, pins the "
                              "replay window grid instead of inferring "
                              "it from the trace extent)")
    monitor.add_argument("--windows", type=int, default=DEFAULT_WINDOWS,
                         help="monitor windows over the horizon "
                              f"(default {DEFAULT_WINDOWS})")
    monitor.add_argument("--tenants", type=int, default=1,
                         help="co-running traffic streams (default 1)")
    monitor.add_argument("--admission-queue", type=int, default=64,
                         help="per-stream admission queue bound "
                              "(default 64; 0 = unbounded)")
    monitor.add_argument("--seed", type=int, default=97,
                         help="traffic seed (default 97)")
    monitor.add_argument("--slo-target-us", type=float, default=500.0,
                         help="SLO latency bound in microseconds "
                              "(default 500)")
    monitor.add_argument("--slo-fraction", type=float, default=0.999,
                         help="SLO good fraction (default 0.999)")
    monitor.add_argument("--cache-mb", type=float, default=0,
                         help="host DRAM tier capacity in MiB "
                              "(default 0 = no tier)")
    monitor.add_argument("--cache-write-back", action="store_true",
                         help="buffer writes in the tier")
    monitor.add_argument("--kill-device", type=int, default=None,
                         metavar="N",
                         help="kill pool member N mid-run (needs "
                              "--devices >= 2; parity rebuild covers it)")
    monitor.add_argument("--kill-at", type=float, default=None,
                         help="kill time, model seconds "
                              "(default horizon/2)")
    monitor.add_argument("--json", default=None, metavar="PATH",
                         help="write the byte-stable monitor JSON to PATH")
    monitor.add_argument("--csv", default=None, metavar="PATH",
                         help="write the windowed series as CSV to PATH")
    monitor.add_argument("--prom", default=None, metavar="PATH",
                         help="write Prometheus text format (with "
                              "model-time timestamps) to PATH")
    monitor.add_argument("--trace-out", default=None, metavar="PATH",
                         help="save the annotated Chrome trace (alert "
                              "instants included) to PATH")
    monitor.add_argument("--text", action="store_true",
                         help="print the text timeline even with --json")
    monitor.set_defaults(fn=_cmd_monitor)
    sub.add_parser("overhead", help="Sec 7.3 overheads").set_defaults(
        fn=_cmd_overhead)
    sub.add_parser("scorecard",
                   help="grade every paper anchor").set_defaults(
        fn=_cmd_scorecard)
    sub.add_parser("table1", help="workload inventory").set_defaults(
        fn=_cmd_table1)
    everything = sub.add_parser("all", help="run every experiment")
    everything.add_argument("--size", type=int, default=4096)
    everything.add_argument("-w", "--workloads", nargs="*", default=None)
    everything.set_defaults(fn=_cmd_all)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
