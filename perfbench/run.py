"""Host wall-time benchmark of the NDS simulator.

Run from the repository root::

    python3 perfbench/run.py --workload nds-sweep --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (host wall time, measured
untraced); ``--trace 1`` runs the same work once untraced and once with
the per-layer wrappers of ``layers.py`` installed, and prints the
per-layer split. Times are expressed at a nominal host speed
(``hostspeed.py``); the raw times are printed beside them. Every run
also checks the simulator's outputs: the fingerprint of the model's
timings on a golden seed against ``goldens.json``, and a functional
read-back of a shrunk copy of the configuration against numpy. The
last line of standard output is one JSON object; the exit code is 0
only when every check passed.

``--record-goldens`` rewrites the workload's entries in
``goldens.json`` (only after a change that is meant to move the model's
timings). ``perfbench/README.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from hostspeed import Reference, SpeedTrack

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDENS = HERE / "goldens.json"
clock = time.perf_counter

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Phase:
    """One executed op stream; times at the nominal host speed."""

    wall: float
    raw_wall: float
    #: overall host-speed factor of the phase
    factor: float
    ops: int
    failed: int
    fingerprint: str
    summary: Dict[str, object]
    times: Dict[str, List[float]]
    gc_seconds: float


class GcClock:
    """Wall time the interpreter's cyclic collector runs inside a
    ``with`` block."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self.full = 0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = clock()
            return
        self.seconds += clock() - self._start
        self.collections += 1
        self.full += info["generation"] == 2

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def build(workload) -> Tuple[object, float]:
    """Construct the system and ingest its datasets (the timed set-up);
    returns the raw set-up time."""
    gc.collect()
    start = clock()
    system = workload.build()
    return system, clock() - start


def fingerprint(system, members, outcome: dict) -> Tuple[str, dict]:
    """Digest of the model outputs of a phase: every executed op's end
    time as ``float.hex()``, GC erase/relocation totals, DRAM-tier hits
    and the run outcome (injector sheds and goodput)."""
    digest = hashlib.sha256()
    for op in system.scheduler.executed:
        digest.update(f"{op.kind} {op.complete_time.hex()}\n".encode())
    summary = {"erased": 0, "relocated": 0}
    for member in members:
        for holder in (getattr(member, "stl", None),
                       getattr(member, "ssd", None)):
            collector = getattr(holder, "gc", None)
            if collector is not None:
                summary["erased"] += collector.total_erased
                summary["relocated"] += collector.total_relocated
    summary["cache_hits"] = (system.cache_counters() or {}).get("hits", 0)
    summary.update(outcome)
    digest.update(json.dumps(summary, sort_keys=True).encode())
    return digest.hexdigest(), summary


def run_phase(workload, system, seed: int, units: int,
              reference: Reference) -> Phase:
    """Execute ``units`` of the op stream, timing every top-level op
    around the system's ``RequestScheduler.execute``. Host-speed
    samples run between ops; they are excluded from the wall time."""
    from workloads import members
    system.reset_time()
    scheduler = system.scheduler
    inner = scheduler.execute
    #: (op kind, raw seconds, host-speed interval)
    samples: List[Tuple[str, float, int]] = []
    gc.collect()
    track = SpeedTrack(reference)
    track.sample()

    def execute(op):
        start = clock()
        try:
            return inner(op)
        finally:
            end = clock()
            samples.append((op.kind, end - start, track.interval))
            track.poll(end)

    scheduler.execute = execute
    collector = GcClock()
    try:
        with collector:
            outcome = workload.run(system, seed, units)
    finally:
        track.finish()
        del scheduler.execute
    factors = track.factors()
    times: Dict[str, List[float]] = {"read": [], "write": []}
    for kind, seconds, interval in samples:
        times.setdefault(kind, []).append(seconds / factors[interval])
    raw_wall, wall = track.walls()
    overall = track.overall()
    digest, summary = fingerprint(system, members(system), outcome)
    summary["ops"] = len(samples)
    print(f"perfbench phase: seed={seed} ops={len(samples)} "
          f"wall={raw_wall:.3f}s raw, {wall:.3f}s nominal; host factor "
          f"{overall:.3f} over {len(track.samples)} samples; python gc "
          f"{collector.collections} collections ({collector.full} full) "
          f"{collector.seconds:.3f}s")
    return Phase(wall=wall, raw_wall=raw_wall, factor=overall,
                 ops=len(samples), failed=outcome["failed"],
                 fingerprint=digest, summary=summary, times=times,
                 gc_seconds=collector.seconds / overall)


def canary(workload, seed: int, reference: Reference
           ) -> Tuple[float, Phase]:
    """Set up afresh and run the golden prefix of the op stream."""
    system, setup = build(workload)
    phase = run_phase(workload, system, seed, workload.canary_units,
                      reference)
    return setup, phase


def load_goldens() -> dict:
    with open(GOLDENS) as handle:
        return json.load(handle)


def check_golden(workload, seed: int, phase: Phase,
                 checks: List[str]) -> None:
    golden = load_goldens().get(workload.name, {}).get(str(seed))
    matches = golden is not None and golden["fingerprint"] == phase.fingerprint
    if not matches:
        checks.append(f"seed {seed}: fingerprint {phase.fingerprint[:16]} "
                      f"{phase.summary} does not match the golden {golden}")
    print(f"perfbench golden: seed={seed} {'ok' if matches else 'MISMATCH'}")


def readback(workload, seed: int, attempted: int, failed: int
             ) -> Tuple[int, int]:
    gc.collect()
    checked, mismatched = workload.readback(seed)
    print(f"perfbench readback: checked={checked} mismatched={mismatched}")
    return attempted + checked, failed + mismatched


def host_facts() -> str:
    import numpy
    return (f"nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"machine={platform.machine()}")


# ----------------------------------------------------------------------
def end_to_end(workload, seed: int, units: int, reference: Reference,
               checks: List[str]) -> Tuple[Metrics, int, int]:
    """The untraced run: timed phase, golden canary, read-back."""
    system, setup = build(workload)
    phase = run_phase(workload, system, seed, units, reference)
    del system
    print(f"perfbench run: {phase.summary} "
          f"fingerprint={phase.fingerprint[:16]}")
    canary_setup, canary_phase = canary(workload, workload.golden_seed,
                                        reference)
    check_golden(workload, workload.golden_seed, canary_phase, checks)
    # a third set-up, so that setup_s is a median of three
    system, spare_setup = build(workload)
    del system
    # set-ups run between the phases: scale them by the run's factor
    setups = [raw / reference.factor()
              for raw in (setup, canary_setup, spare_setup)]
    attempted, failed = readback(workload, seed,
                                 phase.ops + canary_phase.ops,
                                 phase.failed + canary_phase.failed)
    reads, writes = phase.times["read"], phase.times["write"]
    print(f"perfbench samples: reads={len(reads)} writes={len(writes)} "
          f"setups={[round(s, 3) for s in setups]}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_us_per_op": (phase.wall / phase.ops * 1e6, "us/op"),
        "read_us_p50": (percentile(reads, 0.50) * 1e6, "us"),
        "read_us_p99": (percentile(reads, 0.99) * 1e6, "us"),
        "write_us_p50": (percentile(writes, 0.50) * 1e6, "us"),
        "write_us_p99": (percentile(writes, 0.99) * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return metrics, attempted, failed


def per_layer(workload, seed: int, units: int, reference: Reference,
              checks: List[str]) -> Tuple[Metrics, int, int]:
    """The traced run: the same work untraced, then traced."""
    from layers import (LAYER_METRICS, LayerTrace, entry_objects,
                        layer_metrics, snapshot)
    from workloads import members
    system, _setup = build(workload)
    untraced = run_phase(workload, system, seed, units, reference)
    del system
    before = entry_objects()
    trace = LayerTrace()
    trace.install()
    try:
        system, _setup = build(workload)
        parts = members(system)
        trace.reset()
        start_counters = snapshot(system, parts)
        traced = run_phase(workload, system, seed, units, reference)
        end_counters = snapshot(system, parts)
        del system
    finally:
        trace.uninstall()
    if entry_objects() != before:
        checks.append("layer wrappers did not uninstall cleanly")
    if sum(trace.self_s.values()) > traced.raw_wall:
        checks.append("layer self times exceed the traced wall time")
    if traced.fingerprint != untraced.fingerprint:
        checks.append("traced fingerprint differs from the untraced one")
    values = layer_metrics(trace, start_counters, end_counters, traced,
                           untraced)
    # the traced run checks the held-out seed's golden, the untraced
    # run the golden seed's
    _setup, canary_phase = canary(workload, workload.heldout_seed, reference)
    check_golden(workload, workload.heldout_seed, canary_phase, checks)
    attempted, failed = readback(
        workload, seed, untraced.ops + traced.ops + canary_phase.ops,
        untraced.failed + traced.failed + canary_phase.failed)
    metrics = {name: (values[name], unit)
               for name, (unit, _better) in LAYER_METRICS.items()}
    return metrics, attempted, failed


def record_goldens(workload) -> None:
    goldens = load_goldens() if GOLDENS.exists() else {}
    entries = {}
    for seed in (workload.golden_seed, workload.heldout_seed):
        _setup, phase = canary(workload, seed, Reference())
        entries[str(seed)] = {"fingerprint": phase.fingerprint,
                              "summary": phase.summary}
    goldens[workload.name] = entries
    with open(GOLDENS, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    print(f"perfbench host: {host_facts()}")
    if args.record_goldens:
        record_goldens(workload)
        return 0
    units = workload.units(args.seconds)
    print(f"perfbench workload: {workload.name} seed={args.seed} "
          f"units={units} trace={args.trace} -- {workload.why}")
    checks: List[str] = []
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = measure(workload, args.seed, units,
                                         Reference(), checks)
    if failed:
        checks.append(f"{failed} of {attempted} ops failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6f} {unit}")
    print(f"  {'op_failure_rate':36s} {failed / attempted:16.6f} "
          f"({failed}/{attempted})")
    for problem in checks:
        print(f"perfbench CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not checks else 1


if __name__ == "__main__":
    sys.exit(main())
