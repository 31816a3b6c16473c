#!/usr/bin/env python3
"""Deterministic fault injection across all four systems.

One scripted fault plan — a block that goes bad during ingest, a
corrupted page and an aged device — is driven through every
architecture. The ingest's program into the bad block fails, the block
is retired and the unit is re-driven to a fresh page, so no system
loses a byte to it. Then:

* **NDS systems** (software / hardware): the corrupted unit walks the
  full ECC read-retry ladder, fails, and is *reconstructed* from its
  cross-channel XOR parity group; the read still returns correct bytes
  and the unit is relocated so the next read is clean.
* **Baseline / oracle**: a conventional SSD has no parity group to fall
  back on — the same corruption surfaces as a typed
  ``UncorrectableError`` after the retry ladder.

Everything is keyed on ``--seed``: two runs with the same seed produce
byte-identical trace and metrics JSON (the CI determinism job diffs
them), which is the point — fault schedules you can replay.

Run:  python examples/fault_injection.py [--seed N] [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro.analysis.reliability import reliability_sweep
from repro.core.errors import DegradedReadError, UncorrectableError
from repro.faults import FaultConfig, FaultPlan
from repro.nvm import TINY_TEST
from repro.runtime import TraceRecorder
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)

N = 64  # dataset edge (N*N bytes, element_size=1)


def _plan() -> FaultPlan:
    """A grown bad block the ingest programs into (its program fails,
    the block is retired and the unit re-driven to a fresh page), and
    the very first programmed page, on another block, corrupted shortly
    after ingest."""
    return (FaultPlan().mark_block_bad(1, 0, 0, at=0.0)
            .corrupt_page(0, 0, 0, 0, at=0.01))


def _config(seed: int, parity: bool) -> FaultConfig:
    return FaultConfig(seed=seed, parity=parity, rber_base=4e-4,
                       initial_wear=9000, plan=_plan())


def run_system(name: str, system, data: np.ndarray,
               trace: TraceRecorder = None) -> dict:
    """Ingest, then read the whole dataset back at t=0.1 (after the
    scripted corruption fires). Returns a JSON-friendly record."""
    if trace is not None:
        system.set_trace(trace)
    system.ingest("d", (N, N), 1, data=data)
    record = {"system": name, "error": None, "match": None}
    try:
        result = system.read_tile("d", (0, 0), (N, N), start_time=0.1,
                                  with_data=True)
        record["match"] = bool(
            np.array_equal(data, result.data.reshape(N, N)))
        record["elapsed_us"] = round(result.elapsed * 1e6, 3)
    except (UncorrectableError, DegradedReadError) as err:
        record["error"] = type(err).__name__
        record["fail_time_us"] = round(err.fail_time * 1e6, 3)
    flash = getattr(system, "flash", None)
    if flash is None:
        flash = system.ssd.flash
    record["fault_counters"] = dict(sorted(flash.faults.counters().items()))
    record["stream_faults"] = system.scheduler.stream_fault_report()
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0xF417)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()

    data = np.random.default_rng(args.seed).integers(
        0, 256, size=(N, N), dtype=np.uint8).astype(np.uint8)

    trace = TraceRecorder()
    records = [
        run_system("software-nds",
                   SoftwareNdsSystem(TINY_TEST, store_data=True,
                                     faults=_config(args.seed, parity=True)),
                   data, trace=trace),
        run_system("hardware-nds",
                   HardwareNdsSystem(TINY_TEST, store_data=True,
                                     faults=_config(args.seed, parity=True)),
                   data),
        run_system("baseline",
                   BaselineSystem(TINY_TEST, store_data=True,
                                  faults=_config(args.seed, parity=False)),
                   data),
        run_system("oracle",
                   OracleSystem(TINY_TEST, store_data=True,
                                faults=_config(args.seed, parity=False)),
                   data),
    ]

    for record in records:
        outcome = (f"reconstructed, data match={record['match']}"
                   if record["error"] is None
                   else f"typed error {record['error']}")
        print(f"  {record['system']:13s} {outcome}")
        print(f"                counters: {record['fault_counters']}")

    sweep = reliability_sweep(seed=args.seed)
    print("\n== wear sweep (retries / read slowdown) ==")
    for wear, per_system in sweep.items():
        line = "  ".join(
            f"{name}: {vals['retries']:.0f}r {vals['slowdown']:.2f}x"
            for name, vals in per_system.items())
        print(f"  wear {wear:6d}  {line}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = args.out_dir / "fault_injection.trace.json"
    trace_path.write_text(json.dumps(trace.to_chrome(), sort_keys=True))
    metrics_path = args.out_dir / "fault_injection.metrics.json"
    metrics_path.write_text(json.dumps(
        {"seed": args.seed, "systems": records,
         "wear_sweep": {str(k): v for k, v in sweep.items()}},
        sort_keys=True, indent=2))
    retry_spans = sum(1 for span in trace.spans
                      if span.name in ("read_retry", "page_out_retry"))
    print(f"\nwrote {trace_path} ({len(trace.spans)} spans, "
          f"{retry_spans} retry spans) and {metrics_path}")


if __name__ == "__main__":
    main()
