"""Columnar placement counters must reproduce the old dict scans.

The allocator's least-used-bank / least-used-channel rules used to scan
``BlockEntry``'s usage dicts per unit. The columnar mirror
(``BlockEntry.place_cols``) packs both tie-break keys into one integer
grid maintained incrementally by ``record_alloc``/``record_release``;
one ``min`` per row must land on exactly the channel the old
lexicographic scan picked, and the incrementally-maintained grid must
equal a fresh rebuild at any point.

GC relocations set the page slot and ``last_alloc`` only: the counters
must still equal a recount from the pages, and the result must equal
the old ``record_release`` + ``record_alloc`` patch.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core import SpaceTranslationLayer
from repro.core.allocator import NdsAllocator
from repro.core.btree import BlockEntry
from repro.core.errors import CapacityError
from repro.core.sharding import ShardSpec
from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.faults.parity import PARITY_POSITION
from repro.ftl.mapping import OutOfSpaceError
from repro.nvm import TINY_TEST, FlashArray, NvmTiming
from repro.nvm.address import PhysicalPageAddress, ppa_to_index
from repro.nvm.geometry import Geometry


def _old_least_used_channel(geometry, entry, bank):
    bank_use = entry.bank_channels.get(bank) or {}
    channel_use = entry.channel_use
    best = None
    best_bank_use = 0
    best_channel_use = 0
    for c in range(geometry.channels):
        used = bank_use.get(c, 0)
        if best is None or used < best_bank_use:
            best = c
            best_bank_use = used
            best_channel_use = channel_use.get(c, 0)
        elif used == best_bank_use:
            overall = channel_use.get(c, 0)
            if overall < best_channel_use:
                best = c
                best_channel_use = overall
    return best


def _old_bank_usage(geometry, entry):
    usage = [0] * geometry.banks_per_channel
    for (_c, b), count in entry.bank_use.items():
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
            for bank in range(geo.banks_per_channel):
                got = alloc._least_used_channel(entry, bank)
                want = _old_least_used_channel(geo, entry, bank)
                assert got == want, (seed, step, bank, got, want)
            key_grid, bank_tot = alloc._place_cols(entry)
            assert bank_tot == _old_bank_usage(geo, entry), (seed, step)
            # incrementally-maintained grid == fresh rebuild
            entry.place_cols = None
            fresh = alloc._place_cols(entry)
            assert fresh[0] == key_grid and fresh[1] == bank_tot, \
                (seed, step)


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
    shard_channels_in_bank = {c for (c, b) in allowed if b == bank}
    used_in_bank = {c for (c, b) in entry.bank_use if b == bank}
    if not shard_channels_in_bank or \
            used_in_bank >= shard_channels_in_bank:
        banks = sorted({b for (_c, b) in allowed})
        usage = {b: 0 for b in banks}
        for (_c, b), count in entry.bank_use.items():
            if b in usage:
                usage[b] += count
        least = min(usage.values())
        bank = rng.choice([b for b in banks if usage[b] == least])
    channels = sorted({c for (c, b) in allowed if b == bank})
    if not channels:
        channels = sorted({c for (c, _b) in allowed})
    bank_use = entry.bank_channels.get(bank) or {}
    channel_use = entry.channel_use
    best = None
    best_bank_use = 0
    best_channel_use = 0
    for c in channels:
        used = bank_use.get(c, 0)
        if best is None or used < best_bank_use:
            best = c
            best_bank_use = used
            best_channel_use = channel_use.get(c, 0)
        elif used == best_bank_use:
            overall = channel_use.get(c, 0)
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
# GC relocations patch the leaf without touching the usage counters
# ----------------------------------------------------------------------
def _release_alloc_patch(gc):
    """The leaf patch as it was before relocation stopped touching the
    usage counters: a ``record_release`` + ``record_alloc`` pair."""
    def moved(ref, new_ppa):
        if ref.position == PARITY_POSITION:
            gc.parity_patcher(ref.space_id, ref.block_coord, new_ppa)
            return
        entry = gc._entry_resolver(ref.space_id, ref.block_coord)
        if entry is not None:
            entry.record_release(ref.position)
            entry.record_alloc(new_ppa, ref.position)
    return moved


def _assert_usage_recount(stl) -> None:
    """Every entry's usage counters equal a recount from its pages, and
    its placement grid equals a fresh rebuild."""
    for index in stl.indexes.values():
        for entry in index.iter_entries():
            live = [p for p in entry.pages if p is not None]
            assert entry.channel_use == dict(Counter(p.channel
                                                     for p in live))
            assert entry.bank_use == dict(Counter((p.channel, p.bank)
                                                  for p in live))
            per_bank = {}
            for p in live:
                per_bank.setdefault(p.bank, Counter())[p.channel] += 1
            assert entry.bank_channels == {b: dict(c)
                                           for b, c in per_bank.items()}
            cols = entry.place_cols
            if cols is not None:
                entry.place_cols = None
                assert stl.allocator._place_cols(entry) == cols


def _assert_reverse_matches_leaves(stl) -> None:
    """The reverse table and the leaves (and parity store) are one
    bijection: every reverse entry names a filled slot holding exactly
    its page, and every filled slot has its reverse entry. So a GC move
    never finds its slot empty."""
    geometry = stl.geometry
    owners = {}
    for space_id, index in stl.indexes.items():
        for entry in index.iter_entries():
            for position, ppa in enumerate(entry.pages):
                if ppa is not None:
                    owners[ppa_to_index(ppa, geometry)] = (
                        space_id, entry.coord, position)
        if stl.parity is not None:
            for coord, ppa in stl.parity.iter_space(space_id):
                owners[ppa_to_index(ppa, geometry)] = (
                    space_id, coord, PARITY_POSITION)
    assert {idx: (ref.space_id, ref.block_coord, ref.position)
            for idx, ref in stl.gc.reverse.items()} == owners


def _entry_state(stl) -> list:
    state = []
    for space_id in sorted(stl.indexes):
        for entry in stl.indexes[space_id].iter_entries():
            state.append((space_id, entry.coord, list(entry.pages),
                          entry.channel_use, entry.bank_use,
                          entry.bank_channels, entry.last_alloc,
                          entry.place_cols))
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
