#!/usr/bin/env python
"""Macro wall-clock benchmark for the simulator hot path.

Runs the GEMM and conv2d tile-sweep scenarios on all four systems,
prints the wall-clock table and writes ``bench_hotpath.json`` — wall
numbers plus a deterministic ``simulated`` section that must be
byte-identical across runs (CI's ``bench-smoke`` job diffs it).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        [--json bench_hotpath.json] [--tiles 48] [--repeats 1]

Equivalent to ``python -m repro bench``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default="bench_hotpath.json",
                        metavar="PATH",
                        help="output JSON path (default bench_hotpath.json)")
    parser.add_argument("--tiles", type=int, default=48,
                        help="max tile fetches per workload (default 48)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="wall-time repeats, keep the fastest "
                             "(default 1)")
    args = parser.parse_args(argv)

    from repro.analysis.bench import (bench_json, format_bench,
                                      run_hotpath_bench)
    bench = run_hotpath_bench(max_tiles=args.tiles, repeats=args.repeats)
    print(format_bench(bench))
    out = Path(args.json)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(bench_json(bench))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
