#!/usr/bin/env python
"""Interpreter GC collections split by generation and by op kind.

Runs one perfbench workload (untimed) and counts every run of Python's
cyclic collector through ``gc.callbacks``, by generation and by the
kind of the top-level op executing when it fired, and times each run
from its ``start`` to its ``stop`` callback. Ops are tracked around the
system's ``RequestScheduler.execute``, the same hook perfbench times;
collections during construction and ingest count as ``setup``, those
between ops as ``between``. It also prints how many objects the
collector tracks once the system is built, and how many more it tracks
after the run per op executed: a full collection traverses every one
of them, so its cost grows with that heap, and an op that leaves
objects behind grows it for every later collection.

A gen-0 collection fires after a fixed number of container allocations,
so moving allocations from one code path into another moves
collections with them. A change that shifts them from writes into reads
shows up here as a changed split before it shows up as a read-tail
shift in perfbench; compare the table of two commits on the same
arguments.

Usage::

    PYTHONPATH=src python benchmarks/gc_split.py \
        [--workload nds-sweep] [--seed 1] [--units 4000]
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def gc_split(workload, seed: int, units: int):
    """``(collections, seconds, ops, tracked, retained)``: Counters
    keyed by ``(kind, generation)`` of the collections and of their
    seconds, a Counter keyed by op kind, the tracked-object count after
    the build, and that count after the run minus the one after the
    build."""
    collections: Counter = Counter()
    seconds: Counter = Counter()
    ops: Counter = Counter()
    current = ["setup"]
    started = [0.0]

    def callback(phase: str, info: dict) -> None:
        key = (current[-1], info["generation"])
        if phase == "start":
            collections[key] += 1
            started[0] = time.perf_counter()
        else:
            seconds[key] += time.perf_counter() - started[0]

    gc.collect()
    gc.callbacks.append(callback)
    try:
        system = workload.build()
        tracked = len(gc.get_objects())
        current[-1] = "between"
        scheduler = system.scheduler
        inner = scheduler.execute

        def execute(op):
            ops[op.kind] += 1
            current.append(op.kind)
            try:
                return inner(op)
            finally:
                current.pop()

        scheduler.execute = execute
        try:
            outcome = workload.run(system, seed, units)
        finally:
            del scheduler.execute
        retained = len(gc.get_objects()) - tracked
    finally:
        gc.callbacks.remove(callback)
    if outcome["failed"]:
        raise SystemExit(f"{outcome['failed']} ops failed")
    return collections, seconds, ops, tracked, retained


def format_split(collections: Counter, seconds: Counter,
                 ops: Counter) -> str:
    kinds = ["setup"] + sorted(ops) + ["between"]
    lines = [f"{'kind':<10}{'ops':>8}{'gen0':>8}{'gen1':>8}{'gen2':>8}"
             f"{'per 1k ops':>12}{'gen0 s':>9}{'gen1 s':>9}{'gen2 s':>9}"]
    for kind in kinds:
        counts = [collections[(kind, g)] for g in range(3)]
        per_k = (f"{1000.0 * sum(counts) / ops[kind]:.1f}"
                 if ops.get(kind) else "-")
        lines.append(f"{kind:<10}{ops.get(kind, 0):>8}"
                     + "".join(f"{c:>8}" for c in counts) + f"{per_k:>12}"
                     + "".join(f"{seconds[(kind, g)]:>9.3f}"
                               for g in range(3)))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="nds-sweep",
                        help="perfbench workload name (default nds-sweep)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--units", type=int, default=4000,
                        help="work units: tile fetches for the sweeps, "
                             "logical requests for serving (default 4000)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    collections, seconds, ops, tracked, retained = gc_split(
        WORKLOADS[args.workload], args.seed, args.units)
    total = sum(ops.values())
    print(f"{args.workload} seed={args.seed} units={args.units}")
    print(f"tracked objects after the build: {tracked}")
    print(f"tracked objects retained per op: "
          f"{retained / total if total else 0.0:.2f} "
          f"({retained} over {total} ops)")
    print(format_split(collections, seconds, ops))
    return 0


if __name__ == "__main__":
    sys.exit(main())
