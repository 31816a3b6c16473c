"""Exact-equality gates for GC relocation, with and without faults.

``relocation_goldens.json`` was captured before the collectors' per-page
relocation loops were folded into one shared step. Each cell drives a
GC-dense churn (overwrites that keep both collectors busy) on a small
device and pins, bit for bit:

* every op's end time (``float.hex()``, or ``!ErrorName`` when the op
  raised);
* each flash timeline's ``free_at``/``busy_time``/``ops``;
* the flash stats counters, the fault counters and the GC totals;
* a SHA-256 over the translation maps, the reverse tables, the plane
  states (valid bitmaps, append points, free pools) and the stored
  page bytes.

The fault cells mark a relocation destination bad (the
``ProgramFailError`` re-drive and the nested ``retire_block``), script a
corrupt page on a victim's live page (relocation reads it clean under
recovery suppression), and flip the bits of a victim's live page so the
verified relocation read raises ``EccError`` out of the collector.

The traced cells rerun the bad-destination churn with a trace and a
metrics registry subscribed to the flash array and the collector, and
also pin a SHA-256 of the Chrome trace and one of the metrics snapshot:
every per-page probe event of a relocation (sense, transfers, program,
the failed program before its re-drive) at the point it is emitted.

Three cells pin the re-drive branches no other cell reaches:
``stl/parity-bad`` marks bad the block a parity unit is programmed
into, so ``_update_parity`` re-drives it; ``stl/retire-full`` lowers the
GC trigger below one block and marks bad the active block of a plane
with no free block, so the retirement's survivors find no free page
and the retirement collects the plane once and goes on;
``stl/give-back`` lowers the trigger the same way and marks bad a
block a background collection moves pages into, so the re-drive's
retirement leaves the collection no free page for the page in flight
and the collection gives it back and stops.

``stl/degraded-mid`` turns parity on and, after the churn, scripts a
corrupt page on the second of a building block's four units, then reads
every block of the space whole, one read per block. The read of that
block fails on the corrupt unit, rebuilds it from its parity group
(``_degraded_read``) and reads the block's later units after the
rebuild. The cell also pins each read's end time, the STL stats and
the trace and metrics digests.

Re-record (only after a change meant to move the model) with::

    PYTHONPATH=src python tests/perf/test_relocation_goldens.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import SpaceTranslationLayer
from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.ftl import BaselineSSD
from repro.nvm import TINY_TEST, FlashArray
from repro.nvm.address import PhysicalPageAddress, index_to_ppa, ppa_to_index
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from repro.runtime.trace import TraceRecorder
from tests.owner_slots import ftl_reverse_rows, stl_reverse_rows

GOLDEN_PATH = Path(__file__).parent / "relocation_goldens.json"

#: STL churn: 64 KiB space on the 128 KiB tiny device, 48 overwrites
STL_DIMS, STL_ELEMENT, STL_OPS = (128, 128), 4, 48
#: the STL's GC trigger threshold; ``stl/retire-full`` lowers it below
#: one block (6 of a plane's 64 pages), so a plane can run with no free
#: block and a fully invalid block left for the collection to take
STL_GC = 0.25
STL_GC_LOW = {"stl/retire-full": 0.08, "stl/give-back": 0.08}
#: FTL churn on the tiny device with 16 blocks per bank (1024 pages):
#: 560 of 921 logical pages live, 40 rewrites of 48 pages
FTL_PROFILE = replace(TINY_TEST, geometry=replace(TINY_TEST.geometry,
                                                  blocks_per_bank=16))
FTL_LIVE, FTL_OPS, FTL_BATCH = 560, 40, 48
#: ops are issued this far apart in model time
OP_GAP = 2e-3


def _payload(rng: random.Random, size: int) -> np.ndarray:
    return np.frombuffer(rng.randbytes(size), dtype=np.uint8).copy()


def _plan(cell: str) -> FaultPlan | None:
    """The fault plan of a cell (None = no injector attached).

    The coordinates come from a fault-free dry run of the same churn:
    the bad blocks are a GC relocation destination (then the block the
    survivors move to, or a later victim), the corrupt pages are live
    pages of a victim, the dead channel holds planes under GC."""
    layer, kind = cell.split("/")
    plan = FaultPlan()
    if kind == "traced" or cell in BAD:
        for channel, bank, block, at in BAD.get(cell,
                                                BAD[layer + "/bad-dest"]):
            plan.mark_block_bad(channel, bank, block, at=at)
    elif kind == "corrupt":
        plan.corrupt_page(*CORRUPT[layer])
    elif kind == "dead-channel":
        plan.kill_channel(*DEAD_CHANNEL[layer])
    elif kind == "degraded-mid":
        plan.corrupt_page(*DEGRADED, READ_AT)
    else:
        return None
    return plan


#: (channel, bank, block, time) marked bad: the first GC destination of
#: the dry run, then the block its survivors move to (a nested
#: ``retire_block``) or a later victim (an erase failure)
BAD = {
    "stl/bad-dest": ((0, 1, 4, 0.0145), (0, 1, 5, 0.0145),
                     (0, 1, 1, 0.0145)),
    "ftl/bad-dest": ((1, 1, 14, 0.0145), (1, 1, 0, 0.0145)),
    "ftl/bad-nested": ((1, 1, 14, 0.0145), (1, 1, 15, 0.0145)),
    # the block the parity unit of the op at 0.04 is programmed into
    "stl/parity-bad": ((1, 0, 7, 0.0395),),
    # the active block of a plane with no free block, one live page
    # written: the op at 0.068 fails its second page, and the block's
    # survivors find no free page until a collection erases block 1
    "stl/retire-full": ((0, 0, 7, 0.067),),
    # the block the background collection at 0.047 fills after its
    # active block: its program fails, and the retirement's survivors
    # take the plane's last free pages
    "stl/give-back": ((1, 1, 7, 0.047),),
}
#: (channel, bank, block, page, time) scripted corrupt: reads outside
#: recovery walk the full ladder and fail; relocation reads are clean
CORRUPT = {
    "stl": (0, 1, 2, 0, 0.0145),
    "ftl": (1, 1, 5, 3, 0.0),
}
#: (channel, bank, block, page, op index): the page's stored bytes are
#: flipped (FlashArray.corrupt_page) before that op
ECC = {
    "stl": (0, 1, 2, 0, 7),
    "ftl": (1, 1, 5, 3, 7),
}
#: (channel, time) killed
DEAD_CHANNEL = {
    "stl": (1, 0.03),
    "ftl": (1, 0.03),
}
#: ``stl/degraded-mid``'s read phase starts here, after the churn: the
#: (channel, bank, block, page) of the unit at position 1 of block
#: (7, 0) is corrupt from then on, and block i of the space (row-major)
#: is read whole at ``READ_AT + i * OP_GAP``
DEGRADED = (1, 1, 2, 2)
READ_AT = 0.125

CELLS = ("stl/timing", "stl/data", "stl/parity", "stl/bad-dest",
         "stl/corrupt", "stl/ecc", "stl/dead-channel",
         "ftl/timing", "ftl/data", "ftl/bad-dest", "ftl/bad-nested",
         "ftl/corrupt", "ftl/ecc", "ftl/dead-channel",
         "stl/traced", "ftl/traced", "stl/parity-bad", "stl/retire-full",
         "stl/give-back", "stl/degraded-mid")
#: cells observed by a probe with a trace and a metrics registry
TRACED = ("stl/traced", "ftl/traced", "stl/degraded-mid")


def _attach(flash: FlashArray, cell: str) -> None:
    plan = _plan(cell)
    if plan is not None:
        flash.attach_faults(FaultInjector(FaultConfig(plan=plan)))


def _observe(flash: FlashArray, gc, cell: str) -> None:
    """A traced cell's one probe (trace + metrics) on the flash array and
    the collector, as a system attaches it."""
    if cell in TRACED:
        probe = Probe(trace=TraceRecorder(), metrics=MetricsRegistry())
        flash.probe = gc.probe = probe


def _run_stl(cell: str, spy):
    kind = cell.split("/")[1]
    store = kind != "timing"
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                       store_data=store)
    _attach(flash, cell)
    stl = SpaceTranslationLayer(flash,
                                gc_threshold=STL_GC_LOW.get(cell, STL_GC),
                                parity=kind.startswith("parity")
                                or kind == "degraded-mid")
    _observe(flash, stl.gc, cell)
    spy(stl.gc)
    space = stl.create_space(STL_DIMS, STL_ELEMENT)
    rng = random.Random(7)
    outcomes = []

    def op(index: int, origin, extents) -> None:
        if kind == "ecc" and index == ECC["stl"][4]:
            flash.corrupt_page(ppa_to_index(
                PhysicalPageAddress(*ECC["stl"][:4]), flash.geometry))
        data = None
        if store:
            data = _payload(rng, extents[0] * extents[1] * STL_ELEMENT)
            data = data.reshape(tuple(extents) + (STL_ELEMENT,))
        try:
            end = stl.write_region(space.space_id, origin, extents,
                                   data=data,
                                   start_time=index * OP_GAP).end_time
            outcomes.append(end.hex())
            if index % 8 == 7:
                part = stl.gc.collect_background(
                    index * OP_GAP + OP_GAP / 2, OP_GAP / 4)
                outcomes.append(part.end_time.hex())
        except Exception as err:  # pinned: which op raised what
            outcomes.append("!" + type(err).__name__)

    op(0, (0, 0), STL_DIMS)
    for index in range(1, STL_OPS):
        rows = rng.choice((8, 16, 32))
        cols = rng.choice((8, 16, 32))
        origin = (rng.randrange(0, STL_DIMS[0] - rows + 1, 8),
                  rng.randrange(0, STL_DIMS[1] - cols + 1, 8))
        op(index, origin, (rows, cols))
    extra = {}
    if kind == "degraded-mid":
        rows, cols = space.bb
        blocks = [(r, c) for r in range(0, STL_DIMS[0], rows)
                  for c in range(0, STL_DIMS[1], cols)]
        for index, origin in enumerate(blocks):
            try:
                end = stl.read_region(space.space_id, origin, space.bb,
                                      start_time=READ_AT + index * OP_GAP)
                outcomes.append(end.end_time.hex())
            except Exception as err:  # pinned: which read raised what
                outcomes.append("!" + type(err).__name__)
        extra["stl_stats"] = dict(sorted(stl.stats.counters.items()))
    return flash, stl.gc, outcomes, _stl_state(stl), extra


def _run_ftl(cell: str, spy):
    kind = cell.split("/")[1]
    store = kind != "timing"
    ssd = BaselineSSD(FTL_PROFILE, store_data=store)
    _attach(ssd.flash, cell)
    _observe(ssd.flash, ssd.gc, cell)
    spy(ssd.gc)
    rng = random.Random(11)
    page = ssd.page_size
    outcomes = []

    def op(index: int, lpns) -> None:
        if kind == "ecc" and index == ECC["ftl"][4]:
            ssd.flash.corrupt_page(ppa_to_index(
                PhysicalPageAddress(*ECC["ftl"][:4]), ssd.geometry))
        data = [_payload(rng, page) for _ in lpns] if store else None
        try:
            end = ssd.write_lpns(lpns, index * OP_GAP, data=data).end_time
            outcomes.append(end.hex())
        except Exception as err:  # pinned: which op raised what
            outcomes.append("!" + type(err).__name__)

    op(0, list(range(FTL_LIVE)))
    for index in range(1, FTL_OPS):
        op(index, sorted(rng.sample(range(FTL_LIVE), FTL_BATCH)))
    return ssd.flash, ssd.gc, outcomes, _ftl_state(ssd), {}


def _planes_state(planes) -> list:
    out = []
    for key in sorted(planes):
        plane = planes[key]
        blocks = [[b, [o is not None for o in s.owners], s.next_page,
                   s.erase_count, s.retired, s.filled_seq]
                  for b, s in sorted(plane.blocks.items())]
        out.append([list(key), plane.free_pages, plane.active_block,
                    list(plane.free_blocks), blocks])
    return out


def _ppa(ppa, geometry) -> list | None:
    """A page index as its ``[channel, bank, block, page]`` fields."""
    if ppa is None:
        return None
    return list(index_to_ppa(ppa, geometry))


def _usage_counts(entry) -> tuple:
    """The units per channel and per (channel, bank) that an entry's
    usage record holds, decoded from its key grid (``key % M`` and
    ``key // M``, ``M = len(pages) + 1``) as sorted ``[key, count]``
    pairs, zero counts left out."""
    if entry.usage is None:
        return [], []
    key_grid = entry.usage[0]
    m = len(entry.pages) + 1
    channels = [(c, key % m) for c, key in enumerate(key_grid[0])]
    planes = [[[c, b], key // m] for b, row in enumerate(key_grid)
              for c, key in enumerate(row)]
    return ([pair for pair in channels if pair[1]],
            sorted(pair for pair in planes if pair[1]))


def _stl_state(stl) -> list:
    entries = []
    for space_id in sorted(stl.indexes):
        for entry in stl.indexes[space_id].iter_entries():
            entries.append([space_id, list(entry.coord),
                            [_ppa(p, stl.geometry) for p in entry.pages],
                            *_usage_counts(entry),
                            _ppa(entry.last_alloc, stl.geometry)])
    entries.sort(key=repr)
    return [entries, stl_reverse_rows(stl),
            _planes_state(stl.allocator.planes)]


def _ftl_state(ssd) -> list:
    forward = sorted([lpn, _ppa(ppa, ssd.geometry)]
                     for lpn, ppa in ssd.ftl.map.items())
    return [forward, ftl_reverse_rows(ssd.ftl.planes),
            _planes_state(ssd.ftl.planes)]


def _spy_retirements(gc, log: list) -> None:
    """Log every ``retire_block`` with the number of ``collect`` and
    ``retire_block`` calls it runs inside (instance-level wrappers, so
    the collectors' own self-calls are seen too)."""
    depth = {"collect": 0, "retire": 0}

    def nest(name: str, fn):
        def call(*args, **kwargs):
            if name == "retire":
                log.append([depth["collect"], depth["retire"]]
                           + list(args[:3]))
            depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[name] -= 1
        return call

    gc.collect = nest("collect", gc.collect)
    gc.retire_block = nest("retire", gc.retire_block)


def run_cell(cell: str) -> dict:
    runner = _run_stl if cell.startswith("stl/") else _run_ftl
    retirements = []
    flash, gc, outcomes, state, extra = runner(
        cell, lambda gc: _spy_retirements(gc, retirements))
    digest = hashlib.sha256(json.dumps(state).encode())
    for idx in sorted(flash._pages):
        digest.update(idx.to_bytes(4, "little"))
        digest.update(flash._pages[idx].tobytes())
    lines = list(flash.channel_lines)
    for row in flash.bank_lines:
        lines.extend(row)
    faults = flash.faults
    result = {
        "outcomes": outcomes,
        "lines": [[line.name, line.free_at.hex(), line.busy_time.hex(),
                   line.ops] for line in lines],
        "flash_stats": dict(sorted(flash.stats.counters.items())),
        "fault_stats": (dict(sorted(faults.stats.counters.items()))
                        if faults is not None else None),
        "gc": {"relocated": gc.total_relocated, "erased": gc.total_erased,
               "retired": gc.total_retired},
        "retirements": retirements,
        "state_sha256": digest.hexdigest(),
        **extra,
    }
    probe = flash.probe
    if probe is not None:
        result["trace_sha256"] = _sha256(probe.trace.to_chrome())
        result["metrics_sha256"] = _sha256(probe.metrics.snapshot())
    return result


def _sha256(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cell", CELLS)
def test_relocation_bit_identical(cell):
    want = _golden()[cell]
    got = run_cell(cell)
    assert got["gc"] == want["gc"]
    assert got["flash_stats"] == want["flash_stats"]
    assert got["fault_stats"] == want["fault_stats"]
    assert got["outcomes"] == want["outcomes"]
    assert got["lines"] == want["lines"]
    assert got["state_sha256"] == want["state_sha256"]
    for key in ("trace_sha256", "metrics_sha256", "stl_stats"):
        assert got.get(key) == want.get(key), key


def _redrive_branches(cell: str, monkeypatch) -> Counter:
    """Rerun the STL ``cell`` and count the re-drive branches it
    reaches: ``parity``, a retirement run inside ``_update_parity``;
    ``retire_collect_went_on``, a retirement that found no free page
    for a survivor, collected the plane and then finished;
    ``give_back``, a re-drive that retired a block and then found no
    free page, so that ``program_page`` returned None to the collection
    that gives the page back."""
    hits = Counter()
    parity_depth = [0]
    update = SpaceTranslationLayer._update_parity

    def traced_update(self, *args):
        parity_depth[0] += 1
        try:
            return update(self, *args)
        finally:
            parity_depth[0] -= 1

    monkeypatch.setattr(SpaceTranslationLayer, "_update_parity",
                        traced_update)

    def spy(gc):
        #: [retiring, collected] per ``_relocate`` on the stack
        stack = []
        #: whether each ``program_page`` on the stack retired a block
        programs = []
        relocate, collect, retire = gc._relocate, gc._collect, gc.retire_block
        program = gc.program_page

        def traced_relocate(plane, block, now, end, chained, retiring):
            stack.append([retiring, False])
            try:
                out = relocate(plane, block, now, end, chained, retiring)
            finally:
                collected = stack.pop()[1]
            hits["retire_collect_went_on"] += collected
            return out

        def traced_collect(*args, **kwargs):
            if stack and stack[-1][0]:
                stack[-1][1] = True
            return collect(*args, **kwargs)

        def traced_retire(*args, **kwargs):
            hits["parity"] += parity_depth[0] > 0
            if programs:
                programs[-1] = True
            return retire(*args, **kwargs)

        def traced_program(*args, **kwargs):
            programs.append(False)
            try:
                out = program(*args, **kwargs)
            finally:
                retired = programs.pop()
            hits["give_back"] += retired and out[0] is None
            return out

        gc._relocate, gc._collect = traced_relocate, traced_collect
        gc.retire_block, gc.program_page = traced_retire, traced_program

    _run_stl(cell, spy)
    return hits


def _rebuilds(cell: str, monkeypatch) -> list:
    """Rerun the STL ``cell`` and log each reconstruction a block read
    makes as ``[position rebuilt, positions read after it]``: the block
    positions of the units that same ``read_block`` reads once the
    rebuild is done (the rebuild's own parity-group reads not
    counted)."""
    log = []
    rebuilt = [None]  # the entry the running read_block rebuilt a unit of
    depth = [0]
    read_block = SpaceTranslationLayer.read_block
    degraded = SpaceTranslationLayer._degraded_read
    read_pages = FlashArray.read_pages

    def traced_read_block(self, *args, **kwargs):
        rebuilt[0] = None
        try:
            return read_block(self, *args, **kwargs)
        finally:
            rebuilt[0] = None

    def traced_degraded(self, space_id, space, coord, entry, position, err):
        depth[0] += 1
        try:
            return degraded(self, space_id, space, coord, entry, position,
                            err)
        finally:
            depth[0] -= 1
            log.append([position, []])
            rebuilt[0] = entry

    def traced_chain(self, ppas, *args, **kwargs):
        entry = rebuilt[0]
        if entry is not None and not depth[0]:
            log[-1][1].extend(entry.pages.index(p) for p in ppas
                              if p in entry.pages)
        return read_pages(self, ppas, *args, **kwargs)

    monkeypatch.setattr(SpaceTranslationLayer, "read_block",
                        traced_read_block)
    monkeypatch.setattr(SpaceTranslationLayer, "_degraded_read",
                        traced_degraded)
    monkeypatch.setattr(FlashArray, "read_pages", traced_chain)
    _run_stl(cell, lambda gc: None)
    return log


@pytest.mark.parametrize("cell", CELLS)
def test_cell_exercises_its_path(cell, monkeypatch):
    """Each cell really drives the path it is named for."""
    want = _golden()[cell]
    assert want["gc"]["relocated"] > 0 and want["gc"]["erased"] > 0
    kind = cell.split("/")[1]
    faults = want["fault_stats"] or {}
    errors = {o for o in want["outcomes"] if o.startswith("!")}
    # [collect depth, retire depth, channel, bank, block] per retirement
    retirements = want["retirements"]
    if kind.startswith("bad-"):
        # a relocation destination failed: re-drive via retire_block
        assert any(r[0] >= 1 for r in retirements)
    if kind == "bad-dest":
        assert faults["erase_fails"] >= 1 and errors == set()
    if kind == "bad-nested" or cell == "stl/bad-dest":
        # the survivors' new home was bad too
        assert any(r[0] >= 1 and r[1] >= 1 for r in retirements)
    if kind == "bad-nested":
        assert errors == {"!OutOfSpaceError"}
    if kind == "corrupt":
        assert faults["plan_pages_corrupted"] == 1 and errors == set()
    if kind == "ecc":
        assert errors == {"!EccError"}
    if kind == "dead-channel":
        assert errors == {"!UncorrectableError"}
        assert faults["dead_channel_reads"] > 0
    if kind in ("timing", "data", "parity"):
        assert errors == set() and want["fault_stats"] is None
    if kind == "traced":
        # the probe changes nothing it observes: the same run as the
        # untraced bad-destination cell, bit for bit
        untraced = _golden()[cell.split("/")[0] + "/bad-dest"]
        assert {k: want[k] for k in untraced} == untraced
        assert want["trace_sha256"] and want["metrics_sha256"]
    if kind in ("parity-bad", "retire-full", "give-back"):
        assert errors == set() and faults["program_fails"] >= 1
        hits = _redrive_branches(cell, monkeypatch)
    if kind == "parity-bad":
        # a parity program failed: _update_parity re-drove it
        assert hits["parity"] >= 1, hits
    if kind == "retire-full":
        # a retirement ran out of free pages, collected once, went on
        assert hits["retire_collect_went_on"] >= 1, hits
    if kind == "give-back":
        # a collection's re-drive retired a block, found no free page
        # and gave the page in flight back
        assert hits["give_back"] >= 1, hits
    if kind == "degraded-mid":
        # one block read rebuilt its unit at position 1 from parity and
        # then read the block's later units
        assert errors == set()
        assert faults["stl_uncorrectable_reads"] == 1
        assert faults["stl_degraded_reads"] == 1
        assert want["stl_stats"]["stl_degraded_reads"] == 1
        rebuilds = _rebuilds(cell, monkeypatch)
        assert len(rebuilds) == 1, rebuilds
        position, later = rebuilds[0]
        assert position == 1 and later == [2, 3], rebuilds


def test_traced_cells_record_relocation_events():
    """The traced cells' trace really holds the relocation traffic, and
    the probe saw every program: the ones counted and the failed ones
    before each re-drive."""
    for cell in ("stl/traced", "ftl/traced"):
        flash, gc, _outcomes, _state, _extra = (
            _run_stl if cell.startswith("stl/") else _run_ftl)(
                cell, lambda gc: None)
        names = {span.name for span in flash.probe.trace.spans}
        assert {"nand_read", "page_out", "page_in",
                "nand_program"} <= names, cell
        counters = flash.probe.metrics.snapshot()["counters"]
        stats = flash.stats.counters
        assert stats["program_fails"] > 0, cell
        assert counters["flash.pages_programmed"] \
            == stats["pages_programmed"] + stats["program_fails"], cell
        assert gc.total_relocated > 0 and gc.total_retired > 0, cell


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps({cell: run_cell(cell)
                                       for cell in CELLS}, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
