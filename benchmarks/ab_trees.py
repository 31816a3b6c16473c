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
``phase``
    ``WORKLOADS[--workload].run(system, seed, --units)`` on a system
    built outside the timer: perfbench's timed phase, at the workload's
    golden seed. ``--warm N`` first runs N untimed units at the next
    seed, so the timed window starts from a system in steady state (a
    freshly built ``nds-sweep`` runs few STL collections for its first
    ~2000 units). Both trees must give the same digest of every
    executed op's end time; the script exits non-zero when they differ.

``--faults idle|wear`` (``ingest`` and ``phase``) attaches a fault
injector to every flash array of the timed system after its build and
prints the injectors' summed counters after each run. Under ``idle``
(``FaultConfig(rber_base=0.0)``) no read retries and nothing fails;
``wear`` raises the raw bit-error rate and the program fail rate, so
reads retry and programs fail within 20 ``baseline-sweep`` units, and
within ``--warm 300`` plus 20 ``nds-sweep`` units (an STL unit programs
about 5 pages, a baseline unit about 350). An erase fails only on a
structural verdict, which neither level has. With ``phase`` the digest
check then covers fault runs too.

Prints min / q1 / median per tree, then the median of the per-pair
change/parent ratios and how many pairs the change won.

Usage::

    python benchmarks/ab_trees.py --parent PARENT_CHECKOUT --change . \
        [--what ingest|build|fig10|phase] [--workload nds-sweep] \
        [--mib 64] [--units 200] [--warm 0] [--faults idle|wear] \
        [--pairs 10]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import math
import statistics
import sys
from collections import Counter
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
        #: op end-time digests of the ``phase`` runs, one per run
        self.digests: List[str] = []
        with self.active():
            importlib.import_module("workloads")
            importlib.import_module("repro.core")
            importlib.import_module("repro.faults")
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


#: ``--faults`` name -> FaultConfig keyword arguments
FAULTS = {"idle": {"rber_base": 0.0},
          "wear": {"rber_base": 4e-3, "program_fail_base": 5e-4}}


def attach_faults(tree: Tree, flashes, faults) -> list:
    """Attach a fresh ``--faults`` injector to each flash array and
    return the injectors (none when ``faults`` is None)."""
    if faults is None:
        return []
    module = tree.module("repro.faults")
    injectors = []
    for flash in flashes:
        injectors.append(module.FaultInjector(
            module.FaultConfig(**FAULTS[faults])))
        flash.attach_faults(injectors[-1])
    return injectors


def print_fault_counters(tree: Tree, injectors) -> None:
    """Print the summed counters of a run's injectors (nothing when no
    injector was attached)."""
    if not injectors:
        return
    total: Counter = Counter()
    for injector in injectors:
        total.update(injector.counters())
    counts = "  ".join(f"{name} {total[name]}" for name in sorted(total))
    print(f"  {tree.label} fault counters: {counts or 'none'}")


def flash_arrays(system) -> list:
    """Every flash array of a built system: its own or its SSD's, or
    each pool member's."""
    cluster = getattr(system, "cluster", None)
    if cluster is not None:
        return [flash for handle in cluster.pool.devices
                for flash in flash_arrays(handle.system)]
    return [getattr(system, "ssd", system).flash]


def run_ingest(tree: Tree, mib: int, faults) -> float:
    flash_cls = tree.module("repro.nvm").FlashArray
    stl_cls = tree.module("repro.core").SpaceTranslationLayer
    profile = tree.module("workloads").GC_DENSE
    side = int(math.isqrt((mib << 20) // 4))
    flash = flash_cls(profile.geometry, profile.timing, store_data=False)
    injectors = attach_faults(tree, [flash], faults)
    stl = stl_cls(flash)
    space = stl.create_space((side, side), 4)
    gc.collect()
    start = perf_counter()
    stl.write_region(space.space_id, (0, 0), (side, side))
    elapsed = perf_counter() - start
    print_fault_counters(tree, injectors)
    return elapsed


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


def run_phase(tree: Tree, workload: str, units: int, warm: int,
              faults) -> float:
    """Time the workload's op stream on a freshly built system, after
    ``warm`` untimed units at the next seed; the digest of every
    executed op's end time goes to ``tree.digests``."""
    target = tree.module("workloads").WORKLOADS[workload]
    system = target.build()
    injectors = attach_faults(tree, flash_arrays(system), faults)
    system.reset_time()
    if warm:
        target.run(system, target.golden_seed + 1, warm)
    gc.collect()
    start = perf_counter()
    outcome = target.run(system, target.golden_seed, units)
    elapsed = perf_counter() - start
    digest = hashlib.sha256()
    for op in system.scheduler.executed:
        digest.update(f"{op.kind} {op.complete_time.hex()}\n".encode())
    digest.update(f"failed {outcome['failed']}\n".encode())
    tree.digests.append(digest.hexdigest())
    print_fault_counters(tree, injectors)
    del system
    return elapsed


RUNS = {"ingest": lambda tree, args: run_ingest(tree, args.mib,
                                                args.faults),
        "build": lambda tree, args: run_build(tree, args.workload),
        "fig10": lambda tree, args: run_fig10(tree),
        "phase": lambda tree, args: run_phase(tree, args.workload,
                                              args.units, args.warm,
                                              args.faults)}


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
                        help="perfbench workload for --what build|phase")
    parser.add_argument("--mib", type=int, default=64,
                        help="space size for --what ingest (default 64)")
    parser.add_argument("--units", type=int, default=200,
                        help="work units for --what phase (default 200)")
    parser.add_argument("--warm", type=int, default=0,
                        help="untimed units before the timed window of "
                             "--what phase (default 0)")
    parser.add_argument("--faults", choices=tuple(FAULTS), default=None,
                        help="attach a fault injector to the system of "
                             "--what ingest|phase after its build")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.mib < 1 or args.units < 1:
        parser.error("--pairs, --mib and --units must be at least 1")
    if args.warm < 0:
        parser.error("--warm must not be negative")
    if args.faults is not None and args.what not in ("ingest", "phase"):
        parser.error("--faults applies to --what ingest|phase only")
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
            "fig10": "fig10 endtoend_sweep()",
            "phase": f"phase {args.workload}, {args.units} units"
                     + (f" after {args.warm} warm" if args.warm else ""),
            }[args.what]
    if args.faults is not None:
        what += f", {args.faults} injector"
    print(f"{what}, {args.pairs} pairs")
    for label, series in times.items():
        print(f"  {label:<7}{summary(series)}")
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    wins = sum(r < 1.0 for r in ratios)
    print(f"  change/parent per pair: median {statistics.median(ratios):.3f}"
          f"  wins {wins}/{len(ratios)}")
    digests = {digest for tree in trees for digest in tree.digests}
    if len(digests) > 1:
        print("  op end-time digests differ between the trees: "
              + ", ".join(f"{tree.label} {sorted(set(tree.digests))}"
                          for tree in trees))
        return 1
    if digests:
        print(f"  op end-time digest {digests.pop()[:16]} in both trees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
