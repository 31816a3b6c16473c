"""Self-test of the per-layer harness in ``layers.py``.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

It checks that

1. a nested pair of wrapped calls splits its wall time into self times
   that add up to no more than the outer span;
2. installing and uninstalling the wrappers leaves every entry point
   bound to its original object;
3. on a short traced run of each workload, the layer self times add up
   to no more than the traced wall, the traced fingerprint equals the
   workload's golden (recorded untraced), and every layer records work
   on the workload that stresses it and none on the ones that bypass
   it.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import run
from hostspeed import Reference

#: layer counter -> (workloads that must show work, workloads that must not)
EXPECTATIONS = {
    "systems.self_s": (("nds-sweep", "baseline-sweep", "embed-serve"), ()),
    "nvm.flash.pages_read": (("nds-sweep", "baseline-sweep", "embed-serve"),
                             ()),
    "traffic.injector.requests": (("embed-serve",),
                                  ("nds-sweep", "baseline-sweep")),
    "cache.tier.calls": (("embed-serve",), ("nds-sweep", "baseline-sweep")),
    "cluster.translation.calls": (("embed-serve",),
                                  ("nds-sweep", "baseline-sweep")),
    "cluster.gc_offer.calls": (("embed-serve",),
                               ("nds-sweep", "baseline-sweep")),
    "core.gc.background_calls": (("embed-serve",),
                                 ("nds-sweep", "baseline-sweep")),
    "core.gc.collect_calls": (("nds-sweep",), ("baseline-sweep",)),
    "core.gc.blocks_erased": (("nds-sweep",), ("baseline-sweep",)),
    "core.translator.calls": (("nds-sweep", "embed-serve"),
                              ("baseline-sweep",)),
    "core.stl.region_ops": (("nds-sweep", "embed-serve"),
                            ("baseline-sweep",)),
    "core.allocator.calls": (("nds-sweep",), ("baseline-sweep",)),
    "ftl.ssd.lpns": (("baseline-sweep",), ("nds-sweep", "embed-serve")),
    "ftl.gc.collect_calls": (("baseline-sweep",),
                             ("nds-sweep", "embed-serve")),
    "ftl.gc.blocks_erased": (("baseline-sweep",),
                             ("nds-sweep", "embed-serve")),
    "host.io_engine.requests": (("baseline-sweep",),
                                ("nds-sweep", "embed-serve")),
}


def check_nesting(failures: list) -> None:
    from layers import LayerTrace
    trace = LayerTrace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_inner = trace._wrap("core.stl", inner, None)
    wrapped_outer = trace._wrap("systems", outer, None)
    start = time.perf_counter()
    wrapped_outer()
    total = time.perf_counter() - start
    outer_self = trace.self_s["systems"]
    inner_self = trace.self_s["core.stl"]
    if not (0.01 <= outer_self < 0.02 and 0.02 <= inner_self < 0.03):
        failures.append(f"nesting: self times {outer_self:.4f}/"
                        f"{inner_self:.4f}s for 0.01/0.02s of work")
    if outer_self + inner_self > total:
        failures.append("nesting: self times exceed the outer span")


def check_workload(workload, reference, failures: list) -> dict:
    from layers import LayerTrace, entry_objects, layer_metrics, snapshot
    from workloads import members
    before = entry_objects()
    trace = LayerTrace()
    trace.install()
    try:
        system, _setup = run.build(workload)
        parts = members(system)
        trace.reset()
        start = snapshot(system, parts)
        phase = run.run_phase(workload, system, workload.golden_seed,
                              workload.canary_units, reference)
        end = snapshot(system, parts)
        del system
    finally:
        trace.uninstall()
    if entry_objects() != before:
        failures.append(f"{workload.name}: wrappers did not uninstall")
    if sum(trace.self_s.values()) > phase.raw_wall:
        failures.append(f"{workload.name}: self times exceed the wall")
    checks = []
    run.check_golden(workload, workload.golden_seed, phase, checks)
    failures.extend(f"{workload.name}: traced {problem}"
                    for problem in checks)
    return layer_metrics(trace, start, end, phase, phase)


def main() -> int:
    sys.path.insert(0, str(Path(run.SRC)))
    from workloads import WORKLOADS
    failures: list = []
    check_nesting(failures)
    reference = Reference()
    values = {name: check_workload(workload, reference, failures)
              for name, workload in WORKLOADS.items()}
    for metric, (stressed, bypassed) in EXPECTATIONS.items():
        for name in stressed:
            if not values[name][metric] > 0:
                failures.append(f"{metric} is 0 on {name}, which stresses it")
        for name in bypassed:
            if values[name][metric] != 0:
                failures.append(f"{metric} is {values[name][metric]} on "
                                f"{name}, which bypasses it")
    for problem in failures:
        print(f"selftest FAILED: {problem}")
    print(f"selftest: {len(EXPECTATIONS)} layer expectations on "
          f"{len(values)} workloads, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
