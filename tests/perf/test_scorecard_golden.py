"""Exact-equality gate for the reproduction scorecard.

``scorecard_golden.json`` pins, for each of the paper's 15 quantitative
anchors (Fig. 9(a,d), Fig. 10(a,b), §7.2 and §7.3), keyed by anchor
name, the measured value as ``float.hex()`` and the pass/fail verdict.
``python -m repro scorecard`` prints the same numbers, so a change that
moves any of them, or turns a verdict, fails here rather than in a
by-hand comparison of the scorecard text.

Re-record (only after a change meant to move the model) with::

    PYTHONPATH=src python tests/perf/test_scorecard_golden.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.scorecard import run_scorecard

GOLDEN_PATH = Path(__file__).parent / "scorecard_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _graded():
    anchors = run_scorecard()
    graded = {a.name: {"measured": a.measured.hex(), "passed": a.passed}
              for a in anchors}
    assert len(graded) == len(anchors), "anchor names must be unique"
    return graded


@pytest.fixture(scope="module")
def graded():
    return _graded()


def test_same_anchors(graded):
    assert sorted(graded) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_anchor_bit_identical(graded, name):
    assert graded[name] == GOLDEN[name]


def test_golden_passes_every_anchor():
    assert len(GOLDEN) == 15
    assert all(anchor["passed"] for anchor in GOLDEN.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(_graded(), indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
