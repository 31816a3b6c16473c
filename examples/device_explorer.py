#!/usr/bin/env python3
"""Device explorer: watch building blocks land on channels and banks.

A diagnostic walk through the layers below the NDS API — how the STL
splits a space into building blocks (Eq. 1–4), where the §4.2 placement
rules put each physical page, and what that does to channel utilization
compared with the baseline FTL's striping.

Run:  python examples/device_explorer.py
"""

from collections import Counter

import numpy as np

from repro.core import SpaceTranslationLayer
from repro.core.api import array_to_bytes
from repro.ftl import BaselineSSD, wear_report
from repro.nvm import PAPER_PROTOTYPE, FlashArray, index_to_ppa


def explore_nds() -> None:
    profile = PAPER_PROTOTYPE
    flash = FlashArray(profile.geometry, profile.timing, store_data=False)
    stl = SpaceTranslationLayer(flash)

    space = stl.create_space((1024, 1024), element_size=4)
    print(f"space dims {space.dims} -> building block {space.bb} "
          f"({space.pages_per_block} pages), grid {space.grid}")

    stl.write(space.space_id, (0, 0), (1024, 1024))

    # Where did the first block's pages go?
    entry = stl.indexes[space.space_id].lookup((0, 0)).entry
    units = [index_to_ppa(p, flash.geometry) for p in entry.allocated_pages()]
    channels = Counter(p.channel for p in units)
    banks = Counter(p.bank for p in units)
    print(f"block (0,0): {len(units)} pages over "
          f"{len(channels)} channels (x{channels.most_common(1)[0][1]} each)"
          f" and {len(banks)} bank(s) — every channel reachable in "
          f"parallel (Eq. 1)")

    # Fetch a column-crossing tile and measure channel engagement.
    flash.reset_time()
    result = stl.read_region(space.space_id, (0, 0), (1024, 64),
                             with_data=False)
    active = sum(1 for line in flash.channel_lines if line.busy_time > 0)
    print(f"column fetch engaged {active}/{profile.geometry.channels} "
          f"channels in {result.elapsed * 1e6:.0f} us")


def explore_baseline() -> None:
    ssd = BaselineSSD(PAPER_PROTOTYPE, store_data=False)
    # a 1024x4096 matrix of doubles: each row is 32 KiB = 8 pages, so
    # the channel of a row's first page is (8*r) % 32 — only 4 of 32
    # channels ever serve a first-column fetch (the paper's Figure 1
    # situation)
    rows, row_bytes = 1024, 4096 * 8
    pages = rows * row_bytes // ssd.page_size
    ssd.write_lpns(list(range(pages)))
    ssd.reset_time()

    # fetch the first page of every row (a column-block fetch)
    lpns = sorted({(r * row_bytes) // ssd.page_size for r in range(rows)})
    ssd.read_lpns(lpns, 0.0)
    active = sum(1 for line in ssd.flash.channel_lines
                 if line.busy_time > 0)
    busy = [line.busy_time for line in ssd.flash.channel_lines]
    imbalance = max(busy) / (sum(busy) / len(busy)) if sum(busy) else 0.0
    print(f"baseline column fetch engaged {active}/32 channels "
          f"(imbalance {imbalance:.1f}x) — the [P3] effect")
    print(f"wear after ingest: {wear_report(ssd.ftl).total_erases} erases")


def explore_gc() -> None:
    """Hammer one region until the STL's garbage collector runs."""
    from repro.nvm import TINY_TEST
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                       store_data=True)
    stl = SpaceTranslationLayer(flash, gc_threshold=0.30)
    space = stl.create_space((16, 16), element_size=4)
    data = np.arange(256, dtype=np.int32).reshape(16, 16)
    for round_id in range(48):
        stl.write(space.space_id, (0, 0), (16, 16),
                  data=array_to_bytes(data + round_id),
                  start_time=float(round_id))
    print(f"after 48 overwrites on a tiny device: "
          f"{stl.gc.total_relocated} units relocated, "
          f"{stl.gc.total_erased} blocks erased, data still correct: "
          f"{bool((stl.read(space.space_id, (0, 0), (16, 16)).data is not None))}")


def main() -> None:
    print("== NDS placement ==")
    explore_nds()
    print("\n== baseline striping ==")
    explore_baseline()
    print("\n== garbage collection under churn ==")
    explore_gc()
    print("done.")


if __name__ == "__main__":
    main()
