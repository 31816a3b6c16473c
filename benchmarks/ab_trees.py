#!/usr/bin/env python
"""A/B wall-clock timing of two source trees in one interpreter.

Loads the ``repro`` package and ``perfbench/workloads.py`` of two
checkouts (``--parent`` and ``--change``) side by side: each tree's
modules are imported under its own ``sys.path`` and kept as a module
snapshot, which is swapped into ``sys.modules`` while that tree runs.
Each pair runs both trees once, alternating which one goes first, so a
host that drifts in speed loads both sides alike.

What runs (``--what``):

``ingest``
    A whole-array timing-only ingest of a ``--mib`` MiB fp32 square
    space into one STL on perfbench's GC-dense 1 GiB device: the
    fresh-unit placement path alone (construction is not timed).
``build``
    ``WORKLOADS[--workload].build()``: perfbench's timed set-up.
``fig10``
    ``repro.analysis.experiments.endtoend_sweep()``: the paper's Fig. 10
    run (about nine tenths of it ingest).

Prints min / q1 / median per tree, then the median of the per-pair
change/parent ratios and how many pairs the change won.

Usage::

    python benchmarks/ab_trees.py --parent PARENT_CHECKOUT --change . \
        [--what ingest|build|fig10] [--workload nds-sweep] [--mib 64] \
        [--pairs 10]
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, List


def _owned(name: str) -> bool:
    return name in ("repro", "workloads") or name.startswith("repro.")


class Tree:
    """One checkout's ``repro`` and ``workloads`` modules."""

    def __init__(self, label: str, root: Path) -> None:
        self.label = label
        self.paths = [str(root / "src"), str(root / "perfbench")]
        for name in [n for n in sys.modules if _owned(n)]:
            del sys.modules[name]
        self.modules: Dict[str, object] = {}
        with self.active():
            importlib.import_module("workloads")
            importlib.import_module("repro.core")
            importlib.import_module("repro.nvm")

    @contextmanager
    def active(self):
        """This tree's modules in ``sys.modules`` (and its paths first
        on ``sys.path``, for imports a run makes late)."""
        saved_path = list(sys.path)
        sys.path[:0] = self.paths
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            sys.path[:] = saved_path
            for name in [n for n in sys.modules if _owned(n)]:
                self.modules[name] = sys.modules.pop(name)

    def module(self, name: str):
        return self.modules[name]


def run_ingest(tree: Tree, mib: int) -> float:
    flash_cls = tree.module("repro.nvm").FlashArray
    stl_cls = tree.module("repro.core").SpaceTranslationLayer
    profile = tree.module("workloads").GC_DENSE
    side = int(math.isqrt((mib << 20) // 4))
    flash = flash_cls(profile.geometry, profile.timing, store_data=False)
    stl = stl_cls(flash)
    space = stl.create_space((side, side), 4)
    gc.collect()
    start = perf_counter()
    stl.write_region(space.space_id, (0, 0), (side, side))
    return perf_counter() - start


def run_build(tree: Tree, workload: str) -> float:
    target = tree.module("workloads").WORKLOADS[workload]
    gc.collect()
    start = perf_counter()
    system = target.build()
    elapsed = perf_counter() - start
    del system
    return elapsed


def run_fig10(tree: Tree) -> float:
    sweep = importlib.import_module(
        "repro.analysis.experiments").endtoend_sweep
    gc.collect()
    start = perf_counter()
    sweep()
    return perf_counter() - start


RUNS = {"ingest": lambda tree, args: run_ingest(tree, args.mib),
        "build": lambda tree, args: run_build(tree, args.workload),
        "fig10": lambda tree, args: run_fig10(tree)}


def summary(times: List[float]) -> str:
    ordered = sorted(times)
    q1 = (statistics.quantiles(ordered, n=4, method="inclusive")[0]
          if len(ordered) > 1 else ordered[0])
    return (f"min {ordered[0]:.4f}  q1 {q1:.4f}  "
            f"median {statistics.median(ordered):.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the parent checkout")
    parser.add_argument("--change", required=True, type=Path,
                        help="root of the changed checkout")
    parser.add_argument("--what", choices=tuple(RUNS), default="ingest")
    parser.add_argument("--workload", default="nds-sweep",
                        help="perfbench workload for --what build")
    parser.add_argument("--mib", type=int, default=64,
                        help="space size for --what ingest (default 64)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.mib < 1:
        parser.error("--pairs and --mib must be at least 1")
    trees = [Tree("parent", args.parent.resolve()),
             Tree("change", args.change.resolve())]
    times: Dict[str, List[float]] = {tree.label: [] for tree in trees}
    for pair in range(args.pairs):
        order = trees if pair % 2 == 0 else trees[::-1]
        for tree in order:
            with tree.active():
                elapsed = RUNS[args.what](tree, args)
            times[tree.label].append(elapsed)
        print(f"pair {pair}: parent {times['parent'][-1]:.4f} s  "
              f"change {times['change'][-1]:.4f} s", flush=True)
    what = {"ingest": f"ingest {args.mib} MiB",
            "build": f"build {args.workload}",
            "fig10": "fig10 endtoend_sweep()"}[args.what]
    print(f"{what}, {args.pairs} pairs")
    for label, series in times.items():
        print(f"  {label:<7}{summary(series)}")
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    wins = sum(r < 1.0 for r in ratios)
    print(f"  change/parent per pair: median {statistics.median(ratios):.3f}"
          f"  wins {wins}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
