"""Exact-equality gates for fresh-unit placement at ingest.

``placement_goldens.json`` was captured before the §4.2 placement rules
were bound once per building block instead of once per unit. Each cell
ingests a few spaces whole (three block shapes: 4, 16 and 8 pages per
block, the 8-page one a 3-D block) on a small device and pins, bit for
bit:

* every op's end time (``float.hex()``, or ``!ErrorName`` when the op
  raised);
* the STL counters, the flash counters, the fault counters and the GC
  totals;
* a SHA-256 over every entry's ``pages``, ``last_alloc`` and ``usage``
  record, the reverse table (index → space, coordinate, position), the
  parity store, every plane's state (free count, append point, free
  pool, valid bitmaps) and the allocator's RNG state.

The cells: ``timing`` (whole-array, timing-only); ``elide``
(functional, zero-page elision over zero stripes, so a block's slots
are skipped mid-block); ``sharded`` (two spaces on disjoint shards, one
a bank subset, next to an unsharded one); ``dead-channel`` (a channel
killed before the ingest); ``near-full`` (a shrunk space leaves the
planes below the GC trigger, so the next ingest collects mid-block);
``full-plane`` (one plane's free blocks retired, so its units take the
rule-4 fallback); ``program-fail`` (status-fail re-drives); ``parity``
and ``compressed``.

The ``compressed-*`` churn cells go past the ingest: after a whole
ingest of the two 2-D spaces (4- and 16-page blocks) they overwrite
random whole blocks and random partial tiles with compressible and
incompressible bytes, so a compressed block's new units meet the planes
of its old ones and the GC trigger. ``compressed-churn`` has no
injector, ``compressed-fail`` adds status-fail re-drives and
``compressed-kill`` kills a channel mid-run. They also pin a digest of
every flash timeline and how each space reads back against a numpy
copy of what was written.

Re-record (only after a change meant to move the model) with::

    PYTHONPATH=src python tests/perf/test_placement_goldens.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import SpaceTranslationLayer
from repro.core.compression import ZlibCompressor
from repro.core.sharding import ShardSpec
from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.nvm import TINY_TEST, FlashArray
from repro.nvm.address import index_to_ppa
from tests.owner_slots import stl_reverse_rows

GOLDEN_PATH = Path(__file__).parent / "placement_goldens.json"

#: the tiny device with 16 blocks per bank: 4 ch x 2 banks x 128 pages
PROFILE = replace(TINY_TEST, geometry=replace(TINY_TEST.geometry,
                                              blocks_per_bank=16))
#: (dims, element size, bb override, 3-D blocks): 4-page blocks
#: (256 units), 16-page blocks (64 units, rule 3 turns banks mid-block)
#: and 8-page 3-D blocks (64 units)
SPACES = (((128, 128), 4, None, False),
          ((64, 64), 4, (32, 32), False),
          ((16, 16, 16), 4, None, True))
#: the sharded cell's shards, one per space (None = whole array)
SHARDS = (ShardSpec((1, 3)), ShardSpec((0, 1, 2), banks=(1,)), None)
#: the near-full cell first ingests this space, then drops its right
#: half, which leaves every flash block partly valid
FILLER, FILLER_HALF = (192, 192), (192, 96)
OP_GAP = 1e-3

CHURN = ("compressed-churn", "compressed-fail", "compressed-kill")
CELLS = ("timing", "elide", "sharded", "dead-channel", "near-full",
         "full-plane", "program-fail", "parity", "compressed") + CHURN
#: the cells that store page bytes (``store_data=True``)
FUNCTIONAL = ("elide", "sharded", "program-fail", "parity",
              "compressed") + CHURN
#: the churn cells' overwrites after the ingest, and the op at whose
#: start ``compressed-kill`` loses its channel
CHURN_OPS, KILL_OP = 160, 80


def _faults(cell: str):
    if cell == "dead-channel":
        return FaultInjector(FaultConfig(plan=FaultPlan().kill_channel(2)))
    if cell == "program-fail":
        return FaultInjector(FaultConfig(seed=3, program_fail_base=0.05))
    if cell == "compressed-fail":
        return FaultInjector(FaultConfig(seed=5, program_fail_base=0.01))
    if cell == "compressed-kill":
        # the ingest is op 0 and 1, so churn op k starts at (k + 2) gaps
        at = (KILL_OP + 2) * OP_GAP
        return FaultInjector(FaultConfig(
            plan=FaultPlan().kill_channel(1, at=at)))
    return None


def _data(rng: np.random.Generator, dims, element: int, cell: str):
    data = rng.integers(0, 256, tuple(dims) + (element,), dtype=np.uint8)
    if cell == "elide":
        # zero every third 4-row stripe: whole pages of the 16-wide
        # blocks, half pages of the 32-wide ones
        rows = np.arange(dims[0])
        data[(rows // 4) % 3 == 0] = 0
    elif cell == "compressed" or cell in CHURN:
        # low-entropy halves compress to fewer units than they fill
        data[: dims[0] // 2] &= 0x03
    return data


def _tile(rng: np.random.Generator, space):
    """A churn op's region: a whole block or a random partial tile, the
    latter possibly across block edges."""
    if rng.random() < 0.4:
        coord = [int(rng.integers(0, g)) for g in space.grid]
        return [c * b for c, b in zip(coord, space.bb)], list(space.bb)
    origin = [int(rng.integers(0, d)) for d in space.dims]
    extents = [int(rng.integers(1, b + b // 2 + 1)) for b in space.bb]
    return origin, [min(e, d - o) for o, e, d
                    in zip(origin, extents, space.dims)]


def _payload(rng: np.random.Generator, shape):
    """Incompressible, low-entropy or all-zero tile bytes."""
    data = rng.integers(0, 256, shape, dtype=np.uint8)
    kind = rng.random()
    if kind < 0.3:
        data &= 0x03
    elif kind < 0.45:
        data[...] = 0
    return data


def _lines_sha256(flash) -> str:
    lines = list(flash.channel_lines)
    for row in flash.bank_lines:
        lines.extend(row)
    return hashlib.sha256(json.dumps(
        [[line.name, line.free_at.hex(), line.busy_time.hex(), line.ops]
         for line in lines]).encode()).hexdigest()


def run_cell(cell: str) -> dict:
    store = cell in FUNCTIONAL
    flash = FlashArray(PROFILE.geometry, PROFILE.timing, store_data=store)
    faults = _faults(cell)
    if faults is not None:
        flash.attach_faults(faults)
    compressed = cell == "compressed" or cell in CHURN
    stl = SpaceTranslationLayer(
        flash, gc_threshold=0.25,
        compressor=ZlibCompressor() if compressed else None,
        elide_zero_pages=cell == "elide", parity=cell == "parity")
    rng = np.random.default_rng(17)
    outcomes = []
    now = 0.0

    def write(space, origin, extents, data) -> None:
        nonlocal now
        try:
            end = stl.write_region(space.space_id, origin, extents,
                                   data=data, start_time=now).end_time
            outcomes.append(end.hex())
        except Exception as err:  # pinned: which op raised what
            outcomes.append("!" + type(err).__name__)
        now += OP_GAP

    def ingest(space):
        data = (_data(rng, space.dims, space.element_size, cell)
                if store else None)
        write(space, (0,) * space.rank, space.dims, data)
        return data

    if cell == "near-full":
        filler = stl.create_space(FILLER, 4)
        ingest(filler)
        stl.resize_space(filler.space_id, FILLER_HALF)
    if cell == "full-plane":
        plane = stl.allocator.planes[(1, 0)]
        for block in list(plane.free_blocks):
            stl.gc.retire_block(1, 0, block, 0.0)
    if cell in CHURN:
        readback = _churn(stl, rng, ingest, write)
    else:
        for (dims, element, bb, cube), shard in zip(SPACES, SHARDS):
            space = stl.create_space(
                dims, element, bb_override=bb, use_3d_blocks=cube,
                shard=shard if cell == "sharded" else None)
            ingest(space)
    state = _state(stl)
    result = {
        "outcomes": outcomes,
        "stl_stats": dict(sorted(stl.stats.counters.items())),
        "flash_stats": dict(sorted(flash.stats.counters.items())),
        "fault_stats": (dict(sorted(faults.stats.counters.items()))
                        if faults is not None else None),
        "gc": {"relocated": stl.gc.total_relocated,
               "erased": stl.gc.total_erased,
               "retired": stl.gc.total_retired},
        "state_sha256": hashlib.sha256(
            json.dumps(state).encode()).hexdigest(),
    }
    if cell in CHURN:
        result["lines_sha256"] = _lines_sha256(flash)
        result["readback"] = readback(now)
    return result


def _churn(stl, rng: np.random.Generator, ingest, write):
    """Ingest the two 2-D spaces whole, then overwrite random tiles of
    them. Returns the read-back check, run once the state is pinned."""
    spaces, models = [], []
    for dims, element, bb, cube in SPACES[:2]:
        space = stl.create_space(dims, element, bb_override=bb,
                                 use_3d_blocks=cube)
        spaces.append(space)
        models.append(ingest(space).copy())
    for _ in range(CHURN_OPS):
        i = int(rng.integers(0, len(spaces)))
        origin, extents = _tile(rng, spaces[i])
        data = _payload(rng, tuple(extents) + (spaces[i].element_size,))
        write(spaces[i], origin, extents, data)
        region = tuple(slice(o, o + e) for o, e in zip(origin, extents))
        models[i][region] = data

    def readback(start: float) -> list:
        """Per space: "ok", "mismatch" or the error a whole read
        raised."""
        verdicts = []
        for space, model in zip(spaces, models):
            try:
                got = stl.read_region(space.space_id, (0,) * space.rank,
                                      space.dims, start_time=start).data
                verdicts.append("ok" if np.array_equal(got, model)
                                else "mismatch")
            except Exception as err:  # pinned: which read raised what
                verdicts.append("!" + type(err).__name__)
        return verdicts
    return readback


def _ppa(ppa, geometry) -> list | None:
    """A page index as its ``[channel, bank, block, page]`` fields."""
    return None if ppa is None else list(index_to_ppa(ppa, geometry))


def _state(stl) -> list:
    geometry = stl.geometry
    entries = []
    for space_id in sorted(stl.indexes):
        for entry in stl.indexes[space_id].iter_entries():
            entries.append([space_id, list(entry.coord),
                            [_ppa(p, geometry) for p in entry.pages],
                            _ppa(entry.last_alloc, geometry), entry.usage,
                            entry.stored_bytes])
    entries.sort(key=repr)
    reverse = stl_reverse_rows(stl)
    parity = []
    if stl.parity is not None:
        for space_id in sorted(stl.indexes):
            parity.extend(sorted([space_id, list(coord),
                                  _ppa(ppa, geometry)]
                                 for coord, ppa
                                 in stl.parity.iter_space(space_id)))
    planes = []
    for key in sorted(stl.allocator.planes):
        plane = stl.allocator.planes[key]
        active = plane._active_state
        blocks = [[b, [o is not None for o in s.owners], s.next_page,
                   s.erase_count, s.retired]
                  for b, s in sorted(plane.blocks.items())]
        planes.append([list(key), plane.free_pages, plane.active_block,
                       None if active is None else active.next_page,
                       list(plane.free_blocks), blocks])
    version, internal, gauss = stl.allocator.rng.getstate()
    return [entries, reverse, parity, planes, [version, list(internal),
                                               gauss]]


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cell", CELLS)
def test_placement_bit_identical(cell):
    want = _golden()[cell]
    got = run_cell(cell)
    assert got["outcomes"] == want["outcomes"]
    assert got["stl_stats"] == want["stl_stats"]
    assert got["flash_stats"] == want["flash_stats"]
    assert got["fault_stats"] == want["fault_stats"]
    assert got["gc"] == want["gc"]
    assert got["state_sha256"] == want["state_sha256"]
    assert got.get("lines_sha256") == want.get("lines_sha256")
    assert got.get("readback") == want.get("readback")


def test_cells_reach_their_branches():
    """Each fault and pressure cell reaches the branch it is there for."""
    golden = _golden()
    assert golden["elide"]["stl_stats"].get("stl_pages_elided", 0) > 0
    assert golden["dead-channel"]["fault_stats"].get(
        "plan_channels_killed") == 1
    assert golden["near-full"]["gc"]["erased"] > 0
    assert golden["near-full"]["gc"]["relocated"] > 0
    assert golden["program-fail"]["fault_stats"].get("program_fails", 0) > 0
    assert golden["parity"]["stl_stats"].get(
        "stl_parity_units_written", 0) > 0
    assert golden["compressed"]["stl_stats"].get(
        "stl_blocks_compressed", 0) > 0
    assert golden["full-plane"]["gc"]["retired"] > 0
    for cell in CHURN:
        assert golden[cell]["gc"]["erased"] > 0
        assert golden[cell]["stl_stats"]["stl_blocks_compressed"] \
            > len(golden[cell]["outcomes"])
    assert golden["compressed-fail"]["fault_stats"]["program_fails"] > 0
    assert golden["compressed-kill"]["fault_stats"][
        "plan_channels_killed"] == 1
    # the kill fails some later partial writes (their merge reads a
    # dead unit); every other cell's ops all finish and read back
    assert any(o.startswith("!")
               for o in golden["compressed-kill"]["outcomes"])
    assert all(not o.startswith("!") for cell in CELLS
               if cell != "compressed-kill"
               for o in golden[cell]["outcomes"])
    assert golden["compressed-churn"]["readback"] == ["ok", "ok"]
    assert golden["compressed-fail"]["readback"] == ["ok", "ok"]


if __name__ == "__main__":
    if "--record" in sys.argv:
        GOLDEN_PATH.write_text(
            "{\n" + ",\n".join(f"  {json.dumps(cell)}: "
                               f"{json.dumps(run_cell(cell))}"
                               for cell in CELLS) + "\n}\n")
        print(f"recorded {len(CELLS)} cells to {GOLDEN_PATH}")
