"""Multi-block STL region ops are pinned to golden outputs.

The scenario drives a deliberately dense device (the 64 KB space churns
the 128 KB device) with 40 random region reads and writes per seed, so
GC, read-modify-write and zero-page elision all fire inside every
trial. ``region_ops_golden.json`` holds, per seed, digests of the
per-op block timings, of the read-back bytes and of the full flash line
state, plus the STL stats counters. They were captured when region ops
still merged consecutive block accesses into single flash submissions,
so they pin the per-block execution to the exact floats of that path.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.stl import SpaceTranslationLayer
from repro.nvm.flash import FlashArray
from repro.nvm.geometry import Geometry
from repro.nvm.timing import NvmTiming

GOLDEN = json.loads(
    (Path(__file__).parent / "region_ops_golden.json").read_text())


def _build(store, seed, elide=False):
    geo = Geometry(channels=4, banks_per_channel=2, blocks_per_bank=4,
                   pages_per_block=8, page_size=512)
    flash = FlashArray(geo, NvmTiming(), store_data=store)
    stl = SpaceTranslationLayer(flash, seed=seed, gc_threshold=0.25,
                                elide_zero_pages=elide and store)
    space = stl.create_space((128, 128), 4)
    return stl, flash, space


def _lines_state(flash):
    out = []
    for line in flash.channel_lines:
        out.append((line.free_at.hex(), line.busy_time.hex(), line.ops))
    for row in flash.bank_lines:
        for line in row:
            out.append((line.free_at.hex(), line.busy_time.hex(),
                        line.ops))
    return out


def _op_sig(res):
    return (res.start_time.hex(), res.end_time.hex(),
            [(b.issue_time.hex(), b.completion_time.hex(), b.pages,
              b.units_allocated, b.rmw_reads, b.gc_time.hex())
             for b in res.blocks])


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _run_trial(seed, store, elide):
    rng = random.Random(seed)
    stl, flash, space = _build(store, seed, elide)
    sigs = []
    read_bytes = hashlib.sha256()
    t = 0.0
    for _step in range(40):
        t += rng.random() * 1e-3
        o = (rng.randrange(96), rng.randrange(96))
        e = (rng.randrange(1, 128 - o[0] + 1),
             rng.randrange(1, 128 - o[1] + 1))
        if rng.random() < 0.6:
            data = None
            if store and rng.random() < 0.8:
                data = np.frombuffer(
                    rng.randbytes(e[0] * e[1] * 4),
                    dtype=np.uint8).reshape(e + (4,)).copy()
                if elide and rng.random() < 0.5:
                    data[...] = 0
            res = stl.write_region(space.space_id, o, e, data=data,
                                   start_time=t)
        else:
            res = stl.read_region(space.space_id, o, e, start_time=t)
            assert (res.data is not None) == store
            if res.data is not None:
                read_bytes.update(res.data.tobytes())
        sigs.append(_op_sig(res))
    return {"ops": _digest(sigs), "data": read_bytes.hexdigest(),
            "lines": _digest(_lines_state(flash)),
            "stats": dict(sorted(stl.stats.counters.items()))}


@pytest.mark.parametrize("store,elide", [(False, False), (True, False),
                                         (True, True)],
                         ids=["timing-only", "store", "store+elide"])
def test_epoch_batching_bit_identical(store, elide):
    name = "store+elide" if elide else "store" if store else "timing-only"
    for seed in range(8):
        seed += (1000 if store else 0) + (1000 if elide else 0)
        assert _run_trial(seed, store, elide) == GOLDEN[f"{name}/{seed}"], \
            seed
