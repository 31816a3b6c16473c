"""The usage record must reproduce the old dict scans.

The allocator's least-used-bank / least-used-channel rules used to scan
per-channel and per-(channel, bank) count dicts per unit. The usage
record (``BlockEntry.usage``) packs both tie-break keys into one
integer grid maintained incrementally by ``record_alloc``/
``record_release``; the placement rules must land on exactly the
channel the old lexicographic scan, run over a recount of the entry's
pages, picked, and the incrementally-maintained record must equal a
fresh count at any point. The per-block placement plan must yield the
planes, and make the RNG draws, of one per-unit rule call per fresh
unit, through every event after which its caller re-plans.

GC relocations set the page slot and ``last_alloc`` only: the record
must still equal a recount from the pages, and the result must equal
the old ``record_release`` + ``record_alloc`` patch. Overwrites through
``write_block`` (rule-4 fallback, a dead channel, a program re-drive, an
inline GC that raises) must keep the same counters and the reverse
table exact after every op, and so must GC moves and fresh units in the
entries that survive a resize.
"""

import hashlib
import random
import sys
from collections import Counter

import numpy as np
import pytest

from repro.core import SpaceTranslationLayer
from repro.core.allocator import NdsAllocator
from repro.core.btree import BlockEntry
from repro.core.compression import ZlibCompressor
from repro.core.errors import CapacityError
from repro.core.sharding import ShardSpec
from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.faults.parity import PARITY_POSITION
from repro.ftl.mapping import OutOfSpaceError
from repro.nvm import TINY_TEST, FlashArray, NvmTiming
from repro.nvm.flash import EccError
from repro.nvm.address import PhysicalPageAddress, ppa_to_index
from repro.nvm.geometry import Geometry


def _recount(entry):
    """The entry's units per channel and per (channel, bank), counted
    from its pages."""
    live = [p for p in entry.pages if p is not None]
    return (Counter(p.channel for p in live),
            Counter((p.channel, p.bank) for p in live))


def _expected_usage(geometry, entry):
    """The usage record a fresh count of the entry's pages gives:
    ``(key_grid, bank_tot, bank_width)`` as ``BlockEntry`` documents."""
    channel_use, bank_use = _recount(entry)
    m = len(entry.pages) + 1
    banks = range(geometry.banks_per_channel)
    key_grid = [[bank_use[(c, b)] * m + channel_use[c]
                 for c in range(geometry.channels)] for b in banks]
    bank_tot = [sum(n for (_c, bank), n in bank_use.items() if bank == b)
                for b in banks]
    bank_width = [sum(1 for (_c, bank) in bank_use if bank == b)
                  for b in banks]
    return key_grid, bank_tot, bank_width


def _old_least_used_channel(geometry, entry, bank):
    channel_use, bank_use = _recount(entry)
    best = None
    best_bank_use = 0
    best_channel_use = 0
    for c in range(geometry.channels):
        used = bank_use[(c, bank)]
        if best is None or used < best_bank_use:
            best = c
            best_bank_use = used
            best_channel_use = channel_use[c]
        elif used == best_bank_use:
            overall = channel_use[c]
            if overall < best_channel_use:
                best = c
                best_channel_use = overall
    return best


def _old_bank_usage(geometry, entry):
    usage = [0] * geometry.banks_per_channel
    for (_c, b), count in _recount(entry)[1].items():
        usage[b] += count
    return usage


def _run_trial(seed):
    rng = random.Random(seed)
    geo = Geometry(channels=rng.choice([4, 8, 32]),
                   banks_per_channel=rng.choice([2, 4, 8]),
                   blocks_per_bank=64, pages_per_block=64, page_size=4096)
    alloc = NdsAllocator(geo, seed=seed)
    npages = rng.choice([1, 4, 16, 64, 200])
    entry = BlockEntry(coord=(0,), pages=[None] * npages)
    entry.count_usage(geo.channels, geo.banks_per_channel)
    live = []
    for step in range(300):
        op = rng.random()
        if op < 0.55 or not live:
            free = [i for i in range(npages) if entry.pages[i] is None]
            if not free:
                continue
            pos = rng.choice(free)
            ppa = PhysicalPageAddress(rng.randrange(geo.channels),
                                      rng.randrange(geo.banks_per_channel),
                                      rng.randrange(64), rng.randrange(64))
            entry.record_alloc(ppa, pos)
            live.append(pos)
        elif op < 0.8:
            pos = live.pop(rng.randrange(len(live)))
            entry.record_release(pos)
        else:
            _key_grid, bank_tot, bank_width = entry.usage
            usage = _old_bank_usage(geo, entry)
            last = entry.last_alloc
            for bank in range(geo.banks_per_channel):
                # rules 2-3 after a unit in ``bank``, the RNG rewound
                entry.last_alloc = PhysicalPageAddress(0, bank, 0, 0)
                state = alloc.rng.getstate()
                got, chosen = alloc.choose_target(entry)
                alloc.rng.setstate(state)
                if bank_width[bank] < geo.channels:
                    assert chosen == bank, (seed, step, bank, chosen)
                else:
                    assert usage[chosen] == min(usage), (seed, step, bank)
                want = _old_least_used_channel(geo, entry, chosen)
                assert got == want, (seed, step, chosen, got, want)
            entry.last_alloc = last
            assert bank_tot == usage, (seed, step)
            # incrementally-maintained record == fresh count
            assert entry.usage == _expected_usage(geo, entry), (seed, step)


def test_placement_counters_match_old_scans():
    for seed in range(40):
        _run_trial(seed)


# ----------------------------------------------------------------------
# sharded spaces run the same rules over the shard's channels and banks
# ----------------------------------------------------------------------
def _old_choose_target_sharded(rng, entry, allowed):
    """Rules 1-3 for a sharded space as dict scans over the entry's
    usage maps, drawing from ``rng`` exactly as the allocator does."""
    planes = sorted(allowed)
    if entry.last_alloc is None:
        return planes[rng.randrange(len(planes))]
    bank = entry.last_alloc.bank
    channel_use, bank_use = _recount(entry)
    shard_channels_in_bank = {c for (c, b) in allowed if b == bank}
    used_in_bank = {c for (c, b) in bank_use if b == bank}
    if not shard_channels_in_bank or \
            used_in_bank >= shard_channels_in_bank:
        banks = sorted({b for (_c, b) in allowed})
        usage = {b: 0 for b in banks}
        for (_c, b), count in bank_use.items():
            if b in usage:
                usage[b] += count
        least = min(usage.values())
        bank = rng.choice([b for b in banks if usage[b] == least])
    channels = sorted({c for (c, b) in allowed if b == bank})
    if not channels:
        channels = sorted({c for (c, _b) in allowed})
    best = None
    best_bank_use = 0
    best_channel_use = 0
    for c in channels:
        used = bank_use[(c, bank)]
        if best is None or used < best_bank_use:
            best = c
            best_bank_use = used
            best_channel_use = channel_use[c]
        elif used == best_bank_use:
            overall = channel_use[c]
            if overall < best_channel_use:
                best = c
                best_channel_use = overall
    return best, bank


def _run_sharded_trial(seed):
    """Alloc/release churn inside one random shard; every choice equals
    the dict-scan rules', and the RNG streams stay in step."""
    rng = random.Random(seed)
    geo = Geometry(channels=rng.choice([2, 4, 8, 32]),
                   banks_per_channel=rng.choice([1, 2, 4, 8]),
                   blocks_per_bank=64, pages_per_block=64, page_size=4096)
    channels = rng.sample(range(geo.channels),
                          rng.randint(1, geo.channels))
    banks = (None if rng.random() < 0.3 else
             rng.sample(range(geo.banks_per_channel),
                        rng.randint(1, geo.banks_per_channel)))
    allowed = ShardSpec(channels, banks).planes(geo)
    alloc = NdsAllocator(geo, seed=seed)
    reference = random.Random(seed)
    npages = rng.choice([1, 4, 16, 64, 200])
    entry = None
    choices = 0
    for step in range(500):
        if entry is None or rng.random() < 0.01:
            entry = BlockEntry(coord=(0,), pages=[None] * npages)
            entry.count_usage(geo.channels, geo.banks_per_channel)
        got = alloc.choose_target(entry, allowed=allowed)
        want = _old_choose_target_sharded(reference, entry, allowed)
        assert got == want, (seed, step, got, want)
        assert got in allowed
        choices += 1
        free = [i for i in range(npages) if entry.pages[i] is None]
        live = [i for i in range(npages) if entry.pages[i] is not None]
        if free and (not live or rng.random() < 0.6):
            # bind the chosen plane, or (rule 4 / overwrite) another
            # plane of the shard
            channel, bank = (got if rng.random() < 0.8 else
                             rng.choice(sorted(allowed)))
            entry.record_alloc(PhysicalPageAddress(
                channel, bank, rng.randrange(64), rng.randrange(64)),
                rng.choice(free))
        elif live:
            entry.record_release(rng.choice(live))
    assert alloc.rng.random() == reference.random(), seed
    return choices


def test_sharded_placement_matches_dict_scans():
    assert sum(_run_sharded_trial(seed) for seed in range(60)) == 30000


# ----------------------------------------------------------------------
# a fault-free ingest binds each block's plan and count once
# ----------------------------------------------------------------------
def test_fault_free_ingest_binds_units_in_one_pass():
    """``write_block`` binds one placement plan and one usage count per
    block access and binds each fresh unit itself: per unit it runs the
    plane's ``allocate_page`` and the count step, and none of the
    per-unit helpers of the rule-4 fallback path. A fault-free ingest
    has no re-plan event, so the RNG draws are the closed form's: one
    rule-1 draw (a channel and a bank) per block, and one rule-3 draw
    each time a block turns to a new bank. Its 16-page blocks pass the
    device's 8 planes, so rule 3 also draws in rule 4's zone."""
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                       store_data=False)
    stl = SpaceTranslationLayer(flash)
    space = stl.create_space(CHURN_DIMS, CHURN_ELEMENT, bb_override=(32, 32))
    blocks = len(stl.plan_region(space.space_id, (0, 0), CHURN_DIMS))
    units = blocks * space.pages_per_block
    calls = Counter()
    plans = Counter()
    placement_plan = stl.allocator.placement_plan

    def counted_plan(entry, allowed=None):
        plans[entry.coord] += 1
        return placement_plan(entry, allowed)

    stl.allocator.placement_plan = counted_plan

    def profile(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        stl.write_region(space.space_id, (0, 0), CHURN_DIMS)
    finally:
        sys.setprofile(None)
    for name in ("allocate", "_try_allocate", "_place", "choose_target",
                 "record_alloc", "note_alloc", "ppa_to_index", "_unbind"):
        assert calls[name] == 0, (name, calls[name])
    assert len(plans) == blocks and set(plans.values()) == {1}
    assert calls["allocate_page"] == calls["_add_units"] == units
    geometry = stl.geometry
    width = geometry.channels
    stripe = width * geometry.banks_per_channel
    n = space.pages_per_block
    turns = (min(n, stripe) - 1) // width + max(0, n - stripe)
    assert n > stripe
    assert calls["randrange"] == 2 * blocks
    assert calls["choice"] == turns * blocks
    _assert_usage_recount(stl)
    _assert_reverse_matches_leaves(stl)


# ----------------------------------------------------------------------
# the per-block plan against the per-unit rule it replaces
# ----------------------------------------------------------------------
def _old_placement_rule(rng, geometry, entry, allowed=None):
    """Rules 1-3 as one call per unit, as ``write_block`` ran them
    before the per-block plan: the oracle of the plan tests."""
    last = entry.last_alloc
    if last is None:
        if allowed is None:
            return (rng.randrange(geometry.channels),
                    rng.randrange(geometry.banks_per_channel))
        planes = sorted(allowed)
        return planes[rng.randrange(len(planes))]
    channels = banks = None
    width = geometry.channels
    if allowed is not None:
        channels = sorted({c for (c, _b) in allowed})
        banks = sorted({b for (_c, b) in allowed})
        width = len(channels)
    key_grid, bank_tot, bank_width = entry.usage
    bank = last.bank
    if bank_width[bank] >= width:
        scan = range(len(bank_tot)) if banks is None else banks
        least = min(bank_tot[b] for b in scan)
        bank = rng.choice([b for b in scan if bank_tot[b] == least])
    row = key_grid[bank]
    if channels is None:
        return row.index(min(row)), bank
    return min(channels, key=row.__getitem__), bank


def _run_plan_trial(seed):
    """Random records and events through one allocator's plans, against
    the per-unit rule on a second RNG of the same seed. A fresh unit
    binds where the plan says; the other events are the ones a caller
    re-plans after: an elided unit (drawn, never bound), a rule-4
    fallback (bound on another plane), a same-plane rebind (an
    overwrite or a GC move), a release and ``extend_pages``. Returns the
    event counts."""
    rng = random.Random(seed)
    geo = Geometry(channels=rng.choice([1, 2, 4, 8, 32]),
                   banks_per_channel=rng.choice([1, 2, 4, 8]),
                   blocks_per_bank=64, pages_per_block=64, page_size=4096)
    allowed = None
    if rng.random() < 0.4:
        allowed = ShardSpec(
            rng.sample(range(geo.channels), rng.randint(1, geo.channels)),
            None if rng.random() < 0.3 else
            rng.sample(range(geo.banks_per_channel),
                       rng.randint(1, geo.banks_per_channel))).planes(geo)
    shard = sorted(allowed if allowed is not None else
                   ((c, b) for c in range(geo.channels)
                    for b in range(geo.banks_per_channel)))
    alloc = NdsAllocator(geo, seed=seed)
    reference = random.Random(seed)
    seen = Counter()
    entry = plan = None

    def unit(plane):
        return PhysicalPageAddress(*plane, rng.randrange(64),
                                   rng.randrange(64))

    def draw():
        nonlocal plan
        if plan is None:
            plan = alloc.placement_plan(entry, allowed)
        got = next(plan)
        want = _old_placement_rule(reference, geo, entry, allowed)
        assert got == want, (seed, seen, got, want)
        assert alloc.rng.getstate() == reference.getstate(), (seed, seen)
        return got

    for _step in range(400):
        if entry is None or rng.random() < 0.02:
            # a new block: empty, or partly filled off the rules
            npages = rng.choice([1, 4, 16, 64, 200])
            entry = BlockEntry(coord=(0,), pages=[None] * npages)
            entry.count_usage(geo.channels, geo.banks_per_channel)
            for position in rng.sample(range(npages),
                                       rng.randrange(npages)):
                entry.record_alloc(unit(rng.choice(shard)), position)
            plan = None
            seen["block"] += 1
        free = [i for i, p in enumerate(entry.pages) if p is None]
        live = [i for i, p in enumerate(entry.pages) if p is not None]
        event = rng.random()
        if free and event < 0.7:
            entry.record_alloc(unit(draw()), rng.choice(free))
            seen["fresh"] += 1
            continue
        if free and event < 0.76:
            draw()
            seen["elided"] += 1
        elif free and event < 0.82:
            draw()
            entry.record_alloc(unit(rng.choice(shard)), rng.choice(free))
            seen["fallback"] += 1
        elif live and event < 0.9:
            position = rng.choice(live)
            old = entry.pages[position]
            entry.rebind(position, unit((old.channel, old.bank)))
            seen["rebind"] += 1
        elif live and event < 0.97:
            entry.record_release(rng.choice(live))
            seen["release"] += 1
        else:
            entry.extend_pages(len(entry.pages) + rng.randint(1, 8))
            seen["extend"] += 1
        plan = None
    assert alloc.rng.random() == reference.random(), seed
    return seen


def test_placement_plan_matches_the_per_unit_rule():
    seen = sum((_run_plan_trial(seed) for seed in range(60)), Counter())
    for event in ("block", "fresh", "elided", "fallback", "rebind",
                  "release", "extend"):
        assert seen[event] >= 50, seen


#: ``_plan_vs_rule_run`` cases: the hazard each adds to random region
#: writes (fresh units mixed with overwrites, on 4-page blocks and
#: 16-page blocks, which pass the 8 planes of the device: rule 4's
#: zone). ``full-plane`` retires one plane's free blocks, and
#: ``dead-channel`` and ``compressed`` kill a channel first, so units
#: bound for them take the rule-4 fallback.
PLAN_CASES = ("timing", "elide", "near-full", "sharded", "full-plane",
              "dead-channel", "compressed", "program-fail")


def _plan_vs_rule_run(seed: int, case: str, oracle: bool):
    """Random region writes on a small STL; with ``oracle`` its
    allocator's plans call the per-unit rule once per unit, which any
    re-plan leaves exact. Returns the op end times, the leaf state, the
    RNG state and what happened."""
    rng = random.Random(seed)
    geometry = Geometry(channels=4, banks_per_channel=2, blocks_per_bank=16,
                        pages_per_block=8, page_size=256)
    store = case in ("elide", "compressed")
    flash = FlashArray(geometry, TINY_TEST.timing, store_data=store)
    if case == "program-fail":
        flash.attach_faults(FaultInjector(FaultConfig(
            seed=seed, program_fail_base=0.05)))
    elif case in ("dead-channel", "compressed"):
        flash.attach_faults(FaultInjector(FaultConfig(
            plan=FaultPlan().kill_channel(seed % 4))))
    stl = SpaceTranslationLayer(
        flash, gc_threshold=0.25, seed=seed,
        compressor=ZlibCompressor() if case == "compressed" else None,
        elide_zero_pages=case == "elide")
    alloc = stl.allocator
    if oracle:
        def per_unit_plan(entry, allowed=None):
            while True:
                yield _old_placement_rule(alloc.rng, geometry, entry,
                                          allowed)
        alloc.placement_plan = per_unit_plan
    seen = Counter()
    collect = stl.gc.collect

    def counted_collect(*args, **kwargs):
        seen["collections"] += 1
        return collect(*args, **kwargs)

    stl.gc.collect = counted_collect
    fallback = alloc._fallback_allocate

    def counted_fallback(*args, **kwargs):
        seen["fallbacks"] += 1
        return fallback(*args, **kwargs)

    alloc._fallback_allocate = counted_fallback
    outcomes = []
    now = 0.0
    if case == "full-plane":
        key = (seed % 4, seed % 2)
        for block in list(alloc.planes[key].free_blocks):
            stl.gc.retire_block(*key, block, 0.0)
    if case == "near-full":
        filler = stl.create_space((192, 192), 4)
        stl.write_region(filler.space_id, (0, 0), (192, 192))
        stl.resize_space(filler.space_id, (192, 96))
    shards = ((ShardSpec((1, 3)), ShardSpec((0, 1, 2), banks=(1,)))
              if case == "sharded" else (None, None))
    spaces = [stl.create_space((64, 64), 4, shard=shards[0]),
              stl.create_space((64, 64), 4, bb_override=(32, 32),
                               shard=shards[1])]
    for _op in range(14):
        space = rng.choice(spaces)
        extents = (rng.choice((4, 8, 16, 32, 64)), rng.choice((8, 16, 64)))
        origin = (rng.randrange(0, 65 - extents[0], 4),
                  rng.randrange(0, 65 - extents[1], 4))
        data = None
        if store:
            data = np.frombuffer(
                rng.randbytes(extents[0] * extents[1] * 4),
                dtype=np.uint8).reshape(extents + (4,)).copy()
            if case == "elide":
                data[[rng.random() < 0.4 for _ in range(extents[0])]] = 0
            else:
                data[: extents[0] // 2] &= 0x03
        try:
            now = stl.write_region(space.space_id, origin, extents,
                                   data=data, start_time=now).end_time
            outcomes.append(now.hex())
        except (CapacityError, OutOfSpaceError) as err:
            outcomes.append(type(err).__name__)
            break
    seen.update(stl.stats.counters)
    if flash.faults is not None:
        seen["program_fails"] = flash.faults.counters().get(
            "program_fails", 0)
    state = [(entry.coord, list(entry.pages), entry.last_alloc,
              entry.usage, entry.stored_bytes)
             for index in stl.indexes.values()
             for entry in index.iter_entries()]
    return outcomes, state, alloc.rng.getstate(), alloc.rng.random(), seen


#: the counter each case must move, so that its hazard was hit
PLAN_CASE_HAZARD = {"timing": "stl_pages_programmed",
                    "elide": "stl_pages_elided",
                    "near-full": "collections",
                    "sharded": "spaces_sharded",
                    "full-plane": "fallbacks",
                    "dead-channel": "fallbacks",
                    "compressed": "fallbacks",
                    "program-fail": "program_fails"}


@pytest.mark.parametrize("case", PLAN_CASES)
def test_write_block_plan_matches_the_per_unit_rule(case):
    """``write_block`` and the compressed write re-plan after every
    event that moves what the next rule call reads (an overwrite, a
    collection, an elided page, a rule-4 fallback, a re-drive): every
    end time, leaf, usage record and RNG draw equals that of one rule
    call per fresh unit."""
    hits = 0
    for seed in range(12):
        got = _plan_vs_rule_run(seed, case, oracle=False)
        assert got == _plan_vs_rule_run(seed, case, oracle=True), seed
        hits += got[4][PLAN_CASE_HAZARD[case]] > 0
    assert hits >= 6, case


# ----------------------------------------------------------------------
# GC relocations patch the leaf without touching the usage counters
# ----------------------------------------------------------------------
def _release_alloc_patch(gc):
    """The leaf patch as it was before relocation stopped touching the
    usage counters: a ``record_release`` + ``record_alloc`` pair."""
    def moved(ref, new_ppa):
        if ref.position == PARITY_POSITION:
            gc.parity_patcher(ref.space_id, ref.block_coord, new_ppa)
            return
        ref.entry.record_release(ref.position)
        ref.entry.record_alloc(new_ppa, ref.position)
    return moved


def _assert_usage_recount(stl) -> None:
    """Every entry with a bound unit holds its usage record, and every
    record equals a fresh count of its entry's pages."""
    for index in stl.indexes.values():
        for entry in index.iter_entries():
            if entry.usage is None:
                assert entry.is_empty, entry.coord
            else:
                assert entry.usage == _expected_usage(stl.geometry, entry)


def _assert_reverse_matches_leaves(stl) -> None:
    """The reverse table and the leaves (and parity store) are one
    bijection: every reverse entry names a filled slot holding exactly
    its page, and holds that slot's entry object (a parity unit's holds
    None); every filled slot has its reverse entry. So a GC move never
    finds its slot empty, and rebinds the entry the index holds."""
    geometry = stl.geometry
    owners = {}
    for space_id, index in stl.indexes.items():
        for entry in index.iter_entries():
            for position, ppa in enumerate(entry.pages):
                if ppa is not None:
                    owners[ppa_to_index(ppa, geometry)] = (
                        space_id, entry.coord, position, id(entry))
        if stl.parity is not None:
            for coord, ppa in stl.parity.iter_space(space_id):
                owners[ppa_to_index(ppa, geometry)] = (
                    space_id, coord, PARITY_POSITION, id(None))
    assert {idx: (ref.space_id, ref.block_coord, ref.position,
                  id(ref.entry))
            for idx, ref in stl.gc.reverse.items()} == owners


def _entry_state(stl) -> list:
    state = []
    for space_id in sorted(stl.indexes):
        for entry in stl.indexes[space_id].iter_entries():
            state.append((space_id, entry.coord, list(entry.pages),
                          entry.usage, entry.last_alloc))
    return state


def _gc_churn(seed: int, old_patch: bool):
    """Random overwrites on a tiny STL through foreground GC, background
    GC, program-fail re-placement and erase-fail retirement. Checks the
    counters and the reverse/leaf bijection after every step; returns
    the op end times and the final leaf state."""
    rng = random.Random(seed)
    geometry = Geometry(channels=2, banks_per_channel=2, blocks_per_bank=6,
                        pages_per_block=4, page_size=64)
    timing = NvmTiming(t_read=1e-6, t_program=5e-6, t_erase=20e-6,
                       channel_bandwidth=100e6)
    flash = FlashArray(geometry, timing, store_data=False)
    plan = FaultPlan()
    for _ in range(rng.randrange(3)):
        plan.mark_block_bad(rng.randrange(2), rng.randrange(2),
                            rng.randrange(6), at=rng.uniform(0.0, 2e-3))
    flash.attach_faults(FaultInjector(FaultConfig(
        seed=seed, program_fail_base=rng.choice([0.0, 0.05]), plan=plan)))
    stl = SpaceTranslationLayer(flash,
                                gc_threshold=rng.choice([0.1, 0.25, 0.4]))
    if old_patch:
        stl.gc._moved = _release_alloc_patch(stl.gc)
    space = stl.create_space((32, 32), 2)
    planes = stl.allocator.planes
    now = 0.0
    outcomes = []
    try:
        for _ in range(rng.randint(8, 40)):
            step = rng.randrange(8)
            if step == 0:
                # grow a bad block under a plane's next victim: its
                # erase fails and GC retires it
                key = rng.choice(sorted(planes))
                victims = planes[key].victim_candidates()
                if victims:
                    flash.faults.bad_blocks.add((*key, victims[0]))
            elif step == 1:
                now = stl.gc.collect_background(
                    now, rng.choice([1e-9, 3e-5, 1.0])).end_time
            else:
                sub_dim = (rng.choice([8, 16, 32]), rng.choice([8, 16, 32]))
                coordinate = tuple(rng.randrange(32 // f) for f in sub_dim)
                now = stl.write(space.space_id, coordinate, sub_dim,
                                start_time=now).end_time
            outcomes.append(now.hex())
            _assert_usage_recount(stl)
            _assert_reverse_matches_leaves(stl)
    except (CapacityError, OutOfSpaceError) as err:
        outcomes.append(type(err).__name__)
    return outcomes, _entry_state(stl), stl.gc.total_relocated


def test_gc_patch_keeps_usage_counters_exact():
    """A relocation stays in its (channel, bank), so setting the page
    slot and ``last_alloc`` alone leaves every usage counter equal to a
    recount, and the leaves, counters, ``last_alloc`` and timings equal
    those of the old release + alloc pair (whose dict key order differs,
    which no placement rule can see)."""
    relocated = 0
    for seed in range(60):
        new = _gc_churn(seed, old_patch=False)
        assert new == _gc_churn(seed, old_patch=True), seed
        relocated += new[2]
    assert relocated > 1000


class TestEmptySlotIsUnreachable:
    """The old patch counted a unit twice when a relocated unit's slot
    was already empty (``record_release`` of None did nothing, then
    ``record_alloc`` counted). That needs a reverse entry naming an
    empty slot; every path that empties a slot drops the reverse entry
    with it, so the relocation step asserts it instead."""

    def _stl(self, **kwargs):
        flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                           store_data=True)
        return SpaceTranslationLayer(flash, **kwargs)

    def _data(self, dims, seed=3, element=1):
        return np.random.default_rng(seed).integers(
            0, 256, size=dims + (element,), dtype=np.uint8)

    def test_every_slot_emptying_path_keeps_the_bijection(self):
        stl = self._stl(gc_threshold=0.3, elide_zero_pages=True)
        keep = stl.create_space((128, 64), 4)
        drop = stl.create_space((64, 64), 4)
        for space in (keep, drop):
            stl.write_region(space.space_id, (0, 0), space.dims,
                             data=self._data(space.dims, element=4))
            _assert_reverse_matches_leaves(stl)
        # overwrites through GC, every third one all-zero (elided slots)
        for step in range(40):
            data = self._data((32, 32), seed=step, element=4)
            stl.write_region(keep.space_id, (32 * (step % 4), 0), (32, 32),
                             data=data * (step % 3 != 0),
                             start_time=step * 1e-3)
            _assert_reverse_matches_leaves(stl)
        assert stl.gc.total_relocated > 0
        stl.resize_space(keep.space_id, (64, 64))
        _assert_reverse_matches_leaves(stl)
        stl.delete_space(drop.space_id)
        _assert_reverse_matches_leaves(stl)
        _assert_usage_recount(stl)

    def test_program_fail_and_degraded_read_keep_the_bijection(self):
        plan = (FaultPlan().mark_block_bad(2, 0, 0, at=0.0)
                .corrupt_page(1, 0, 0, 0, at=0.01))
        flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                           store_data=True)
        flash.attach_faults(FaultInjector(FaultConfig(parity=True,
                                                      plan=plan)))
        stl = SpaceTranslationLayer(flash, parity=True)
        space = stl.create_space((64, 64), 1)
        stl.write_region(space.space_id, (0, 0), (64, 64),
                         data=self._data((64, 64)))
        _assert_reverse_matches_leaves(stl)
        stl.read_region(space.space_id, (0, 0), (64, 64), start_time=0.1)
        counters = flash.faults.counters()
        assert counters["program_fails"] >= 1
        assert counters["stl_degraded_reads"] >= 1
        _assert_reverse_matches_leaves(stl)
        _assert_usage_recount(stl)

    def test_a_move_into_an_empty_slot_is_refused(self):
        """Break the bijection by hand (release a slot, keep its reverse
        entry and its valid page) and relocate the page: the old patch
        would count the unit again, the step refuses."""
        stl = self._stl()
        space = stl.create_space((32, 32), 1)
        stl.write_region(space.space_id, (0, 0), (32, 32),
                         data=self._data((32, 32)))
        entry = next(stl.indexes[space.space_id].iter_entries())
        ppa = entry.record_release(0)
        with pytest.raises(AssertionError, match="empty slot"):
            stl.gc.retire_block(ppa.channel, ppa.bank, ppa.block, 1.0)


# ----------------------------------------------------------------------
# resize, then GC moves and fresh units in the surviving entries
# ----------------------------------------------------------------------
def _pinned_entries(stl) -> list:
    """Every entry's slots, ``last_alloc`` and unit counts per channel,
    per (channel, bank) and per bank and channel, as plain sorted data
    (the counts from the pages, which the record equals)."""
    def ppa(p):
        return None if p is None else (p.channel, p.bank, p.block, p.page)
    state = []
    for space_id in sorted(stl.indexes):
        for entry in stl.indexes[space_id].iter_entries():
            channel_use, bank_use = _recount(entry)
            per_bank = {}
            for (c, b), count in bank_use.items():
                per_bank.setdefault(b, {})[c] = count
            state.append((space_id, entry.coord,
                          [ppa(p) for p in entry.pages], ppa(entry.last_alloc),
                          sorted(channel_use.items()),
                          sorted(bank_use.items()),
                          sorted((b, sorted(c.items()))
                                 for b, c in per_bank.items())))
    return sorted(state)


#: SHA-256 of the pinned entries and end times after every step of
#: ``test_resize_then_gc_keeps_entries_live``
RESIZE_GC_DIGEST = \
    "12bcf78a6de425a2654ffae7a81e1a7db004aae5b5a08b949b492f3ca668cb8e"


def test_resize_then_gc_keeps_entries_live():
    """Grow and shrink a space on ``TINY_TEST``, churn overwrites until
    GC moves units of the entries that survived, then place fresh units
    into their empty slots and churn again. A GC move rebinds the entry
    that owns the unit, so ``resize_space`` must carry the live entries
    over: an index of copies would keep the moved units' old pages.
    After every step the counters equal a recount, the reverse table
    matches the leaves, the space reads back as numpy says, and the
    steps' entry states hash to a pinned digest."""
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                       store_data=True)
    stl = SpaceTranslationLayer(flash, gc_threshold=0.25)
    rng = random.Random(26)
    space = stl.create_space((160, 128), 4)
    sid = space.space_id
    # 16 x 16 blocks of four 4-row pages
    assert space.bb == (16, 16) and space.pages_per_block == 4
    ref = np.zeros((160, 128, 4), dtype=np.uint8)
    digest = hashlib.sha256()
    now = 0.0

    def write(origin, extents):
        nonlocal now
        data = np.frombuffer(rng.randbytes(extents[0] * extents[1] * 4),
                             dtype=np.uint8).reshape(tuple(extents) + (4,))
        ref[origin[0]:origin[0] + extents[0],
            origin[1]:origin[1] + extents[1]] = data
        now = stl.write_region(sid, origin, extents, data=data,
                               start_time=now).end_time

    def check():
        _assert_usage_recount(stl)
        _assert_reverse_matches_leaves(stl)
        dims = stl.get_space(sid).dims
        assert ref.shape[:2] == dims
        got = stl.read_region(sid, (0, 0), dims, start_time=now).data
        assert np.array_equal(got, ref)
        digest.update(repr((_pinned_entries(stl), now.hex())).encode())

    def resize(dims):
        nonlocal ref
        stl.resize_space(sid, dims)
        kept = ref[:dims[0], :dims[1]]
        ref = np.zeros(tuple(dims) + (4,), dtype=np.uint8)
        ref[:kept.shape[0], :kept.shape[1]] = kept
        check()

    def churn(rows):
        """Overwrite written rows (the top ``rows`` of every block)
        until GC has moved 150 units."""
        start = stl.gc.total_relocated
        bands, columns = ref.shape[0] // 16, ref.shape[1] // 16
        for _ in range(400):
            band = 16 * rng.randrange(bands)
            top = band + rng.randrange(0, rows, 4)
            height = min(rng.choice((4, 8)), band + rows - top)
            write((top, 16 * rng.randrange(columns)), (height, 16))
            check()
            if stl.gc.total_relocated - start >= 150:
                return
        raise AssertionError("the churn never reached its GC moves")

    # the top half of every block: slots 0 and 1 filled, 2 and 3 empty
    for band in range(0, 160, 16):
        write((band, 0), (8, 128))
    check()
    resize((192, 144))
    for band in range(0, 192, 16):
        write((band, 128), (8, 16))
    for band in (160, 176):
        write((band, 0), (8, 128))
    check()
    # releases the last block row and the last block column
    resize((176, 128))
    churn(8)
    # fresh units into the surviving entries' empty slots
    for band in range(0, 176, 16):
        write((band + 8, 0), (8, 128))
    check()
    churn(16)
    assert digest.hexdigest() == RESIZE_GC_DIGEST


# ----------------------------------------------------------------------
# overwrites through write_block: fallback, dead channel, re-drive, ECC
# ----------------------------------------------------------------------
#: 64 KiB space on the 128 KiB tiny device; ops issue this far apart
CHURN_DIMS, CHURN_ELEMENT, CHURN_GAP = (128, 128), 4, 2e-3


def _overwrite_churn(seed: int, case: str) -> dict:
    """Random region overwrites on ``TINY_TEST`` through ``write_block``
    after a full ingest; every unit written after the ingest replaces
    one. ``case`` adds one hazard to the churn:

    * ``full``: a plane loses its spare blocks (retired), so overwrites
      pinned to it take the rule-4 fallback;
    * ``dead``: a channel dies (``FaultPlan.kill_channel``), so
      overwrites pinned to it take the fallback;
    * ``program-fail``: programs report status-fail and are re-driven;
    * ``ecc``: every live page of another block is corrupted, so an
      inline GC raises ``EccError`` from a relocation read mid-block.

    Asserts the usage counters and the reverse/leaf bijection after
    every op, and read-back while no unit is lost. Returns what
    happened, for the caller to check the hazard was hit."""
    rng = random.Random(seed)
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                       store_data=True)
    dead = rng.randrange(TINY_TEST.geometry.channels)
    if case == "dead":
        flash.attach_faults(FaultInjector(FaultConfig(
            seed=seed, plan=FaultPlan().kill_channel(dead, at=CHURN_GAP))))
    elif case == "program-fail":
        flash.attach_faults(FaultInjector(FaultConfig(
            seed=seed, program_fail_base=0.03)))
    stl = SpaceTranslationLayer(flash, gc_threshold=0.25)
    seen = Counter()
    fallback = stl.allocator._fallback_allocate

    def counted_fallback(target, allowed=None):
        seen["fallback"] += 1
        seen["fallback_dead"] += target[0] == dead
        return fallback(target, allowed=allowed)

    stl.allocator._fallback_allocate = counted_fallback
    collect = stl.gc.collect

    def counted_collect(*args, **kwargs):
        try:
            return collect(*args, **kwargs)
        except EccError:
            seen["gc_ecc"] += 1
            raise

    stl.gc.collect = counted_collect
    space = stl.create_space(CHURN_DIMS, CHURN_ELEMENT)
    model = np.zeros(CHURN_DIMS + (CHURN_ELEMENT,), dtype=np.uint8)
    readable = case != "dead"

    def write(index, origin, extents) -> None:
        data = np.frombuffer(
            rng.randbytes(extents[0] * extents[1] * CHURN_ELEMENT),
            dtype=np.uint8).reshape(tuple(extents) + (CHURN_ELEMENT,))
        try:
            stl.write_region(space.space_id, origin, extents, data=data,
                             start_time=index * CHURN_GAP)
        finally:
            _assert_usage_recount(stl)
            _assert_reverse_matches_leaves(stl)
        model[origin[0]:origin[0] + extents[0],
              origin[1]:origin[1] + extents[1]] = data
        if readable:
            got = stl.read_region(space.space_id, (0, 0), CHURN_DIMS,
                                  start_time=(index + 0.5) * CHURN_GAP)
            assert np.array_equal(got.data, model), (seed, case, index)

    write(0, (0, 0), CHURN_DIMS)
    if case == "full":
        key = rng.choice(sorted(stl.allocator.planes))
        plane = stl.allocator.planes[key]
        for block in list(plane.free_blocks):
            stl.gc.retire_block(*key, block, 0.5 * CHURN_GAP)
        _assert_usage_recount(stl)
    # whole blocks only on a dead channel: a read-modify-write would
    # read units the channel took with it
    step = 16 if case == "dead" else 8
    sizes = (16, 32) if case == "dead" else (8, 16, 32)
    corrupted = False
    for index in range(1, 60):
        if case == "ecc" and index == 8:
            # corrupt every live page outside a 2x2-block region, then
            # rewrite that region until an inline GC reads one
            rows = cols = 32
            origin = (rng.randrange(0, CHURN_DIMS[0] - 31, 16),
                      rng.randrange(0, CHURN_DIMS[1] - 31, 16))
            written = {access.block_coord for access in
                       stl.plan_region(space.space_id, origin,
                                       (rows, cols))}
            for entry in stl.indexes[space.space_id].iter_entries():
                if entry.coord not in written:
                    for ppa in entry.allocated_pages():
                        flash.corrupt_page(ppa)
            corrupted, readable = True, False
        elif not corrupted:
            rows, cols = rng.choice(sizes), rng.choice(sizes)
            origin = (rng.randrange(0, CHURN_DIMS[0] - rows + 1, step),
                      rng.randrange(0, CHURN_DIMS[1] - cols + 1, step))
        try:
            write(index, origin, (rows, cols))
        except EccError:
            seen["ecc_ops"] += 1
            break
        except (CapacityError, OutOfSpaceError):
            seen["out_of_space"] += 1
            break
    if flash.faults is not None:
        seen["program_fails"] = flash.faults.counters().get(
            "program_fails", 0)
    seen["relocated"] = stl.gc.total_relocated
    return seen


def test_write_at_the_kill_time_steers_off_the_dead_channel():
    """A write issued at exactly a channel's kill time sees the channel
    dead before it places a unit: its whole-block overwrites take the
    fallback off the channel, no program is tried there, and the region
    reads back. (Placing first would rebind units on the dead channel;
    their programs fail and the retirement reads the dead channel.)"""
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                       store_data=True)
    dead = 1
    flash.attach_faults(FaultInjector(FaultConfig(
        plan=FaultPlan().kill_channel(dead, at=CHURN_GAP))))
    stl = SpaceTranslationLayer(flash, gc_threshold=0.25)
    space = stl.create_space(CHURN_DIMS, CHURN_ELEMENT)
    rng = np.random.default_rng(5)
    stl.write_region(space.space_id, (0, 0), CHURN_DIMS,
                     data=rng.integers(0, 256, CHURN_DIMS + (CHURN_ELEMENT,),
                                       dtype=np.uint8))
    extents = (32, 32)
    index = stl.indexes[space.space_id]
    entries = [index.lookup(access.block_coord).entry for access in
               stl.plan_region(space.space_id, (0, 0), extents)]

    def on_dead() -> int:
        return sum(ppa.channel == dead for entry in entries
                   for ppa in entry.allocated_pages())

    assert on_dead() > 0
    region = rng.integers(0, 256, extents + (CHURN_ELEMENT,), dtype=np.uint8)
    stl.write_region(space.space_id, (0, 0), extents, data=region,
                     start_time=CHURN_GAP)
    assert on_dead() == 0
    assert flash.faults.counters().get("program_fails", 0) == 0
    got = stl.read_region(space.space_id, (0, 0), extents,
                          start_time=2 * CHURN_GAP)
    assert np.array_equal(got.data, region)
    _assert_usage_recount(stl)
    _assert_reverse_matches_leaves(stl)


@pytest.mark.parametrize("compressed", [False, True],
                         ids=["plain", "compressed"])
def test_kill_during_the_rmw_read_steers_off_the_dead_channel(compressed):
    """A channel killed after a partial write issues but before its
    read-modify-write read completes is seen before placement: the
    programs issue at the read's end, so the write steers them off the
    channel, none fails, and the region reads back. (Placing at the
    issue time's view would rebind units on the dead channel; their
    programs fail and the re-drive's retirement reads the dead
    channel.)"""
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                       store_data=True)
    dead, t0 = 1, 1e-3
    flash.attach_faults(FaultInjector(FaultConfig(
        plan=FaultPlan().kill_channel(dead, at=t0 + 1e-9))))
    stl = SpaceTranslationLayer(
        flash, compressor=ZlibCompressor() if compressed else None)
    space = stl.create_space(CHURN_DIMS, CHURN_ELEMENT)
    assert space.bb == (16, 16)
    rng = np.random.default_rng(11)
    model = rng.integers(0, 256, CHURN_DIMS + (CHURN_ELEMENT,),
                         dtype=np.uint8)
    stl.write_region(space.space_id, (0, 0), CHURN_DIMS, data=model)
    extents = (8, 16)
    entry = stl.indexes[space.space_id].lookup((0, 0)).entry
    assert any(ppa.channel == dead for ppa in entry.allocated_pages())
    region = rng.integers(0, 256, extents + (CHURN_ELEMENT,), dtype=np.uint8)
    result = stl.write_region(space.space_id, (0, 0), extents, data=region,
                              start_time=t0)
    assert result.blocks[0].rmw_reads > 0
    assert not any(ppa.channel == dead for ppa in entry.allocated_pages())
    assert flash.faults.counters().get("program_fails", 0) == 0
    model[:8, :16] = region
    got = stl.read_region(space.space_id, (0, 0), (16, 16),
                          start_time=2 * t0)
    assert np.array_equal(got.data, model[:16, :16])
    _assert_usage_recount(stl)
    _assert_reverse_matches_leaves(stl)


@pytest.mark.parametrize("compressed", [False, True],
                         ids=["plain", "compressed"])
@pytest.mark.parametrize("dead", range(4))
@pytest.mark.parametrize("threshold", [0.1, 0.6])
def test_a_write_never_collects_a_plane_on_a_dead_channel(threshold, dead,
                                                          compressed):
    """A unit whose preferred plane sits on a dead channel takes the
    rule-4 fallback, so the write skips that plane's trigger test: a
    collection there would read the dead channel and raise
    ``UncorrectableError`` out of the write. At the default trigger the
    compressed write reaches a low plane on channel 0; at 0.6 every
    plane of the full device is below the trigger."""
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing,
                       store_data=True)
    t0 = 1e-3
    flash.attach_faults(FaultInjector(FaultConfig(
        plan=FaultPlan().kill_channel(dead, at=t0 + 1e-9))))
    stl = SpaceTranslationLayer(
        flash, gc_threshold=threshold,
        compressor=ZlibCompressor() if compressed else None)
    space = stl.create_space(CHURN_DIMS, CHURN_ELEMENT)
    rng = np.random.default_rng(11)
    model = rng.integers(0, 256, CHURN_DIMS + (CHURN_ELEMENT,),
                         dtype=np.uint8)
    stl.write_region(space.space_id, (0, 0), CHURN_DIMS, data=model)
    extents = (8, 16)
    region = rng.integers(0, 256, extents + (CHURN_ELEMENT,), dtype=np.uint8)
    result = stl.write_region(space.space_id, (0, 0), extents, data=region,
                              start_time=t0)
    assert result.blocks[0].rmw_reads > 0
    assert flash.faults.counters().get("program_fails", 0) == 0
    model[:8, :16] = region
    # a compressed write stores the whole block again, off the channel;
    # a plain one rewrites only the region's units
    read = (16, 16) if compressed else extents
    got = stl.read_region(space.space_id, (0, 0), read, start_time=2 * t0)
    assert np.array_equal(got.data, model[:read[0], :read[1]])
    _assert_usage_recount(stl)
    _assert_reverse_matches_leaves(stl)


@pytest.mark.parametrize("case, hazard", [
    ("full", "fallback"),
    ("dead", "fallback_dead"),
    ("program-fail", "program_fails"),
    ("ecc", "gc_ecc"),
])
def test_overwrite_churn_keeps_counters_and_reverse_exact(case, hazard):
    """Every overwrite hazard leaves the usage counters equal to a
    recount and the reverse table equal to the leaves, after every op,
    including the op an inline GC aborts with ``EccError``."""
    seen = Counter()
    for seed in range(6):
        seen.update(_overwrite_churn(seed, case))
    assert seen[hazard] > 0, seen
    assert seen["relocated"] > 0, seen
    if case == "ecc":
        assert seen["ecc_ops"] == seen["gc_ecc"] == 6, seen
