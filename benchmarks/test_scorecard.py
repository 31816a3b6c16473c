"""The reproduction scorecard: every quantitative paper anchor, graded.

One benchmark to rule on the reproduction as a whole — the same
measurements the per-figure benches make, collected into a single
paper-vs-measured verdict table.
"""

from __future__ import annotations

from benchmarks.conftest import once
from repro.analysis import format_table
from repro.analysis.scorecard import run_scorecard


def test_reproduction_scorecard(benchmark):
    anchors = once(benchmark, run_scorecard)
    rows = [[a.section, a.name, f"{a.paper:g}", f"{a.measured:.3g}",
             f"{a.delta:+.0%}", "pass" if a.passed else "CHECK"]
            for a in anchors]
    print()
    print(format_table(["section", "anchor", "paper", "measured",
                        "delta", "verdict"], rows,
                       title="Reproduction scorecard"))
    failed = [a.name for a in anchors if not a.passed]
    passed = sum(1 for a in anchors if a.passed)
    print(f"\n{passed}/{len(anchors)} anchors within tolerance"
          + (f"; outside: {failed}" if failed else ""))
    # The reproduction stands only if every anchor holds.
    assert not failed, failed
