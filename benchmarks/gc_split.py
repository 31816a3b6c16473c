#!/usr/bin/env python
"""Interpreter GC collections split by generation and by op kind.

Runs one perfbench workload (untimed) and counts every run of Python's
cyclic collector through ``gc.callbacks``, by generation and by the
kind of the top-level op executing when it fired. Ops are tracked
around the system's ``RequestScheduler.execute``, the same hook
perfbench times; collections during construction and ingest count as
``setup``, those between ops as ``between``.

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
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def gc_split(workload, seed: int, units: int):
    """``(collections, ops)``: Counters keyed by ``(kind, generation)``
    and by op kind."""
    collections: Counter = Counter()
    ops: Counter = Counter()
    current = ["setup"]

    def callback(phase: str, info: dict) -> None:
        if phase == "start":
            collections[(current[-1], info["generation"])] += 1

    gc.collect()
    gc.callbacks.append(callback)
    try:
        system = workload.build()
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
    finally:
        gc.callbacks.remove(callback)
    if outcome["failed"]:
        raise SystemExit(f"{outcome['failed']} ops failed")
    return collections, ops


def format_split(collections: Counter, ops: Counter) -> str:
    kinds = ["setup"] + sorted(ops) + ["between"]
    lines = [f"{'kind':<10}{'ops':>8}{'gen0':>8}{'gen1':>8}{'gen2':>8}"
             f"{'per 1k ops':>12}"]
    for kind in kinds:
        counts = [collections[(kind, g)] for g in range(3)]
        per_k = (f"{1000.0 * sum(counts) / ops[kind]:.1f}"
                 if ops.get(kind) else "-")
        lines.append(f"{kind:<10}{ops.get(kind, 0):>8}"
                     + "".join(f"{c:>8}" for c in counts) + f"{per_k:>12}")
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
    collections, ops = gc_split(WORKLOADS[args.workload], args.seed,
                                args.units)
    print(f"{args.workload} seed={args.seed} units={args.units}")
    print(format_split(collections, ops))
    return 0


if __name__ == "__main__":
    sys.exit(main())
