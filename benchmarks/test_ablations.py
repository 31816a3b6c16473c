"""Ablations over the design choices DESIGN.md calls out.

These are not paper figures; they isolate the mechanisms behind the
paper's claims:

* building-block size sweep — why the STL sizes blocks by Eq. 1/2;
* channel utilization under striping — [P3] made visible;
* queue-depth sweep — [P2]'s request-size/overhead trade-off;
* 2-D vs 3-D blocks for tensor bricks — §4.1's bank-parallel option;
* software-NDS copy-core scaling — the host-assembly bottleneck.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (MICRO_ELEM, MICRO_N, fresh_baseline, once)
from repro.analysis import format_table
from repro.cache import CacheConfig
from repro.host.cpu import HostCpu
from repro.nvm import PAPER_PROTOTYPE
from repro.systems import BaselineSystem, HardwareNdsSystem, SoftwareNdsSystem


def test_ablation_block_size_sweep(benchmark):
    """Eq. 2's block (256² for 8 B elements ≈ the paper's pick) should
    be at or near the best submatrix-fetch bandwidth; much smaller
    blocks pay per-block costs, much larger ones fetch waste."""
    def run():
        out = {}
        for side in (64, 128, 256, 512, 1024):
            system = HardwareNdsSystem(PAPER_PROTOTYPE,
                                       bb_override=(side, side))
            system.ingest("m", (MICRO_N, MICRO_N), MICRO_ELEM)
            system.reset_time()
            result = system.read_tile("m", (0, 0), (1024, 1024))
            out[side] = result.effective_bandwidth
        return out

    sweep = once(benchmark, run)
    print()
    print(format_table(["block side", "submatrix fetch GB/s"],
                       [[s, f"{bw / 1e9:.2f}"] for s, bw in sweep.items()],
                       title="Ablation: building-block size"))
    best = max(sweep, key=sweep.get)
    assert best in (128, 256, 512)
    assert sweep[256] > 0.8 * sweep[best]


def test_ablation_channel_utilization(benchmark):
    """[P3]: a sequential stream engages every channel; a submatrix
    fetch from the striped row-store layout concentrates on a subset."""
    def run():
        system = fresh_baseline()
        system.ingest("m", (MICRO_N, MICRO_N), MICRO_ELEM)
        system.reset_time()
        seq = system.read_tile("m", (0, 0), (256, MICRO_N))
        seq_busy = [line.busy_time
                    for line in system.ssd.flash.channel_lines]
        system.reset_time()
        sub = system.read_tile("m", (0, 0), (1024, 1024))
        sub_busy = [line.busy_time
                    for line in system.ssd.flash.channel_lines]
        return seq_busy, sub_busy

    seq_busy, sub_busy = once(benchmark, run)
    seq_active = sum(1 for b in seq_busy if b > 0)
    sub_active = sum(1 for b in sub_busy if b > 0)
    # imbalance: max/mean busy among active channels
    sub_imbalance = max(sub_busy) / (sum(sub_busy) / len(sub_busy))
    print(f"\nsequential: {seq_active}/32 channels active; "
          f"submatrix: {sub_active}/32 active, "
          f"imbalance {sub_imbalance:.1f}x")
    assert seq_active == 32
    # the 1024-wide tile touches only 2 of every row's 8 pages, so the
    # striped layout concentrates traffic (the paper's 50 % example)
    assert sub_active < 32 or sub_imbalance > 1.5


def test_ablation_queue_depth(benchmark):
    """[P2]: deeper queues recover overlap for small-request patterns;
    the effect saturates."""
    def run():
        out = {}
        for depth in (1, 4, 16, 64, 256):
            system = BaselineSystem(PAPER_PROTOTYPE, queue_depth=depth)
            system.ingest("m", (MICRO_N, MICRO_N), MICRO_ELEM)
            system.reset_time()
            result = system.read_tile("m", (0, 0), (1024, 1024))
            out[depth] = result.effective_bandwidth
        return out

    sweep = once(benchmark, run)
    print()
    print(format_table(["queue depth", "submatrix fetch GB/s"],
                       [[d, f"{bw / 1e9:.2f}"] for d, bw in sweep.items()],
                       title="Ablation: baseline queue depth"))
    values = list(sweep.values())
    assert values == sorted(values)
    assert sweep[64] > 4 * sweep[1]
    assert sweep[256] < 1.5 * sweep[64]  # saturating


def test_ablation_2d_vs_3d_blocks(benchmark):
    """§4.1: for depth-crossing tensor bricks, 3-D cube blocks (banks as
    the third dimension) dominate 2-D blocks laid on the wrong plane."""
    def run():
        dims = (128, 128, 512)
        brick = ((0, 0, 0), (32, 32, 128))
        out = {}
        for label, override, use_3d in (("2d-blocks", None, False),
                                        ("3d-blocks", None, True)):
            system = HardwareNdsSystem(PAPER_PROTOTYPE)
            space = system.stl.create_space(dims, 4, bb_override=override,
                                            use_3d_blocks=use_3d)
            system._spaces["t"] = space.space_id
            system.write_tile("t", (0, 0, 0), dims)
            system.reset_time()
            result = system.read_tile("t", *brick)
            out[label] = (result.effective_bandwidth, result.fetched_bytes,
                          result.useful_bytes)
        return out

    sweep = once(benchmark, run)
    rows = [[k, f"{bw / 1e9:.2f}", f"{fetched / useful:.2f}x"]
            for k, (bw, fetched, useful) in sweep.items()]
    print()
    print(format_table(["layout", "brick fetch GB/s", "fetch amplification"],
                       rows, title="Ablation: 2-D vs 3-D building blocks"))
    assert sweep["3d-blocks"][0] > sweep["2d-blocks"][0]


def test_ablation_device_profiles(benchmark):
    """[C1]: devices differ, applications shouldn't care. The same
    column-crossing fetch wins on every profile without any
    application-side layout change — the block shape adapts per device."""
    from repro.nvm import CONSUMER_SSD, PCM_PROTOTYPE

    def run():
        out = {}
        for profile in (PAPER_PROTOTYPE, CONSUMER_SSD, PCM_PROTOTYPE):
            small = profile.scaled_capacity(1 / 8)
            nds = HardwareNdsSystem(small)
            base = BaselineSystem(small)
            for system in (nds, base):
                system.ingest("m", (2048, 2048), 4)
                system.reset_time()
            nds_bw = nds.read_tile("m", (0, 0), (2048, 256)
                                   ).effective_bandwidth
            base_bw = base.read_tile("m", (0, 0), (2048, 256)
                                     ).effective_bandwidth
            block = nds.stl.get_space(1).bb
            out[profile.name] = (block, base_bw, nds_bw)
        return out

    sweep = once(benchmark, run)
    rows = [[name, "x".join(map(str, block)),
             f"{base / 1e9:.2f}", f"{nds / 1e9:.2f}",
             f"{nds / base:.1f}x"]
            for name, (block, base, nds) in sweep.items()]
    print()
    print(format_table(
        ["device", "derived block", "baseline GB/s", "hardware NDS GB/s",
         "gain"], rows, title="Ablation: device profiles (column fetch)"))
    blocks = {block for block, _b, _n in sweep.values()}
    assert len(blocks) >= 2  # block shapes adapt per device
    for name, (_block, base_bw, nds_bw) in sweep.items():
        assert nds_bw > base_bw, name


def test_ablation_controller_queue_capacity(benchmark):
    """§5.3.2: the controller's pipeline elements exchange work through
    message-queue pairs. Tiny queues backpressure the fast front-end
    stages behind the flash; a few slots recover full throughput."""
    from repro.sim.queues import bounded_pipeline

    def run():
        # per-block stage times through the controller pipeline for a
        # 64-block tile: translate, flash read, assemble, link share
        blocks = 64
        stage_times = [[4.3e-6, 80e-6, 20e-6, 55e-6]] * blocks
        out = {}
        for capacity in (1, 2, 4, 8):
            result = bounded_pipeline(stage_times,
                                      [capacity, capacity, capacity])
            out[capacity] = result.total_time
        out["unbounded"] = bounded_pipeline(stage_times).total_time
        return out

    sweep = once(benchmark, run)
    print()
    print(format_table(["queue slots", "64-block tile time (ms)"],
                       [[k, f"{v * 1e3:.2f}"] for k, v in sweep.items()],
                       title="Ablation: controller message-queue capacity"))
    values = [sweep[k] for k in (1, 2, 4, 8)]
    assert values == sorted(values, reverse=True)  # deeper is never slower
    assert sweep[8] == pytest.approx(sweep["unbounded"], rel=0.05)


def test_ablation_software_copy_cores(benchmark):
    """The software NDS is host-assembly-bound; more marshalling cores
    push it toward the hardware NDS (at real CPU cost — paper §7.2:
    'software NDS increases the CPU workload')."""
    def run():
        out = {}
        for cores in (1, 2, 4):
            system = SoftwareNdsSystem(PAPER_PROTOTYPE,
                                       bb_override=(256, 256),
                                       cpu=HostCpu(copy_cores=cores))
            system.ingest("m", (MICRO_N, MICRO_N), MICRO_ELEM)
            system.reset_time()
            result = system.read_tile("m", (0, 0), (1024, MICRO_N))
            out[cores] = result.effective_bandwidth
        return out

    sweep = once(benchmark, run)
    print()
    print(format_table(["copy cores", "row fetch GB/s"],
                       [[c, f"{bw / 1e9:.2f}"] for c, bw in sweep.items()],
                       title="Ablation: software NDS marshalling cores"))
    assert sweep[2] > sweep[1]
    assert sweep[4] >= sweep[2]


def test_ablation_page_cache(benchmark):
    """§7.1's cache note: with a host system cache (the DRAM tier over
    LPN runs), repeated adjacent column fetches against the row-store
    baseline are served from memory. The first pass is as slow as ever
    — caching does not fix the cold-fetch problem NDS solves."""
    def run():
        system = BaselineSystem(PAPER_PROTOTYPE,
                                cache=CacheConfig(capacity_bytes=8 << 30))
        system.ingest("m", (MICRO_N, MICRO_N), MICRO_ELEM)
        system.reset_time()
        cold = system.read_tile("m", (0, 0), (MICRO_N, 256))
        system.reset_time()
        warm = system.read_tile("m", (0, 256), (MICRO_N, 256))
        return (cold.elapsed, warm.elapsed,
                system.cache_report()["hit_rate"])

    cold, warm, hit_ratio = once(benchmark, run)
    print(f"\ncold column fetch {cold * 1e3:.2f} ms, adjacent warm fetch "
          f"{warm * 1e3:.2f} ms (cache hit ratio {hit_ratio:.0%})")
    assert warm < cold / 2
    assert hit_ratio > 0.3


def test_ablation_gc_policy(benchmark):
    """GC victim policy under random-overwrite churn: greedy moves the
    least live data; cost-benefit trades some copying for age-aware
    wear; FIFO copies the most."""
    import numpy as np

    from repro.ftl import BaselineSSD
    from repro.nvm import TINY_TEST

    def run():
        out = {}
        for policy in ("greedy", "cost-benefit", "fifo"):
            ssd = BaselineSSD(TINY_TEST, store_data=False)
            ssd.gc.policy = policy
            stride = (TINY_TEST.geometry.channels
                      * TINY_TEST.geometry.banks_per_channel)
            rng = np.random.default_rng(42)
            for round_id in range(400):
                lpn = int(rng.integers(0, 6)) * stride
                ssd.write_lpns([lpn], float(round_id))
            out[policy] = (ssd.gc.total_relocated, ssd.gc.total_erased)
        return out

    sweep = once(benchmark, run)
    print()
    print(format_table(
        ["policy", "pages relocated", "blocks erased"],
        [[k, str(v[0]), str(v[1])] for k, v in sweep.items()],
        title="Ablation: GC victim policy under churn"))
    assert sweep["greedy"][0] <= sweep["fifo"][0]
