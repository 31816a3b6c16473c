"""A wear-heavy fault run is pinned to a golden.

Software NDS (with parity) and the baseline each take an ingest and
then a GC-dense churn of row-tile writes and reads on the tiny device
with 16 blocks per bank, under a :class:`FaultConfig` whose bit-error
rate and program-fail probability both grow with the block's erase
count, and a :class:`FaultPlan` with one event of each
kind (corrupt a page, mark a block bad, kill a channel, kill the
device). ``fault_run_golden.json`` holds, per system:

* each op's end time, or the name, message and fail time of the fault
  error it raised (floats as ``float.hex()``);
* the injector's counters, the flash array's stats and its timelines;
* the collector's relocated, erased and retired totals.

So a change to how the injector keys pages, blocks or plan events, to
when it sees the plan, or to how a typed fault error names its page,
moves the golden. Regenerate with
``PYTHONPATH=src python tests/faults/test_fault_run_golden.py`` only
when such a change is intended.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import CapacityError
from repro.faults import FaultConfig, FaultPlan
from repro.faults.errors import FaultError
from repro.ftl.mapping import OutOfSpaceError
from repro.nvm import TINY_TEST
from repro.systems import BaselineSystem, SoftwareNdsSystem

GOLDEN_PATH = Path(__file__).parent / "fault_run_golden.json"

PROFILE = replace(TINY_TEST, geometry=replace(TINY_TEST.geometry,
                                              blocks_per_bank=16))
#: a 192 x 128 fp32 dataset (384 of 1024 pages) churned in whole-row
#: tiles, so baseline writes stay page aligned
ROWS, COLS, TILE_ROWS = 192, 128, 16
OPS = 200
OP_GAP = 4e-3


def _config(parity: bool) -> FaultConfig:
    plan = (FaultPlan()
            .corrupt_page(1, 0, 3, 2, at=0.02)
            .mark_block_bad(2, 1, 5, at=0.03)
            .kill_channel(3, at=(OPS - 12) * OP_GAP)
            .kill_device(0, at=(OPS - 4) * OP_GAP))
    return FaultConfig(seed=0x3A7, rber_base=3e-3, wear_scale=4.0,
                       program_fail_wear=3e-4, parity=parity, plan=plan)


def _lines(flash) -> list:
    lines = list(flash.channel_lines)
    for row in flash.bank_lines:
        lines.extend(row)
    return [[line.name, line.free_at.hex(), line.busy_time.hex(),
             line.ops] for line in lines]


def run(cls, parity: bool) -> dict:
    system = cls(PROFILE, store_data=True, faults=_config(parity))
    device = system.stl if cls is SoftwareNdsSystem else system.ssd
    flash, gc = device.flash, device.gc
    rng = np.random.default_rng(41)
    system.ingest("d", (ROWS, COLS), 4,
                  data=rng.integers(0, 2 ** 31, (ROWS, COLS),
                                    dtype=np.uint32))
    ops = []
    now = 1e-3
    for _ in range(OPS):
        origin = (int(rng.integers(0, ROWS // TILE_ROWS)) * TILE_ROWS, 0)
        try:
            if rng.random() < 0.6:
                data = rng.integers(0, 2 ** 31, (TILE_ROWS, COLS),
                                    dtype=np.uint32)
                result = system.write_tile("d", origin, (TILE_ROWS, COLS),
                                           data=data, start_time=now)
            else:
                result = system.read_tile("d", origin, (TILE_ROWS, COLS),
                                          start_time=now, with_data=True)
            ops.append(result.end_time.hex())
        except FaultError as err:
            ops.append([type(err).__name__, str(err), err.fail_time.hex()])
        except (CapacityError, OutOfSpaceError) as err:
            ops.append([type(err).__name__, str(err)])
        now += OP_GAP
    return {
        "ops": ops,
        "faults": dict(sorted(flash.faults.counters().items())),
        "flash": dict(sorted(flash.stats.counters.items())),
        "lines": _lines(flash),
        "gc": [gc.total_relocated, gc.total_erased, gc.total_retired],
    }


SCENARIOS = {"software-nds": lambda: run(SoftwareNdsSystem, True),
             "baseline": lambda: run(BaselineSystem, False)}

GOLDEN = (json.loads(GOLDEN_PATH.read_text())
          if GOLDEN_PATH.exists() else {})


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fault_run_golden(name):
    assert json.loads(json.dumps(SCENARIOS[name]())) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_exercises_wear_faults(name):
    """The golden is not vacuous: wear fed the read ladder and the
    program verdicts, the plan's structural verdicts failed erases, and
    the collector ran."""
    entry = GOLDEN[name]
    for counter in ("read_retries", "program_fails", "erase_fails"):
        assert entry["faults"][counter] > 0, counter
    for counter in ("plan_pages_corrupted", "plan_blocks_marked_bad",
                    "plan_channels_killed", "plan_devices_killed"):
        assert entry["faults"][counter] == 1, counter
    assert entry["gc"][1] > 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: scenario() for name, scenario in sorted(SCENARIOS.items())},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
