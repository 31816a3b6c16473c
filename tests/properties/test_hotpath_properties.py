"""Property-based gates on the hot-path optimizations (hypothesis).

Invariants:
* translation caching is invisible — cached, repeat-cached and
  freshly computed calls return identical access lists and page lists;
* a block slice's pages equal an element-by-element reference;
* random overwrite churn — including GC and fault-injected (bad-block
  / retry) runs — produces **bit identical** timings with the
  translation memo on (the default) and off;
* functional read-back after batched page fan-out returns exactly the
  bytes a numpy mirror predicts;
* the incremental free-space index matches a brute-force recount under
  overwrite / foreground GC / background GC / fault-retirement churn:
  every plane's ``free_pages``, the collector's ``low_planes`` set, and
  the order in which ``collect_background`` visits planes.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.translator as translator
from repro.core import Space, SpaceTranslationLayer, pages_for_region
from repro.core.errors import CapacityError
from repro.core.translator import translate_region
from repro.faults import FaultInjector, FaultPlan
from repro.faults.model import FaultConfig
from repro.ftl import BaselineSSD
from repro.ftl.mapping import OutOfSpaceError
from repro.host.cpu import HostCpu
from repro.host.io_engine import HostIoEngine, IoRun
from repro.interconnect.link import Link
from repro.nvm import FlashArray, Geometry, NvmTiming
from repro.nvm.profiles import TINY_TEST
from repro.systems import BaselineSystem, HardwareNdsSystem, SoftwareNdsSystem
from tests.owner_slots import live_slots

GEOMETRY = Geometry(channels=4, banks_per_channel=2, blocks_per_bank=8,
                    pages_per_block=8, page_size=256)


@st.composite
def space_and_region(draw):
    rank = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(4, 48)) for _ in range(rank))
    element_size = draw(st.sampled_from([1, 2, 4, 8]))
    origin = tuple(draw(st.integers(0, d - 1)) for d in dims)
    extents = tuple(draw(st.integers(1, d - o))
                    for o, d in zip(origin, dims))
    space = Space.create(1, dims, element_size, GEOMETRY)
    return space, origin, extents


@settings(max_examples=60, deadline=None)
@given(space_and_region())
def test_translation_cache_is_invisible(data):
    space, origin, extents = data
    cold = translate_region(space, origin, extents)
    warm = translate_region(space, origin, extents)  # cache hit
    space.clear_translation_caches()
    fresh = translate_region(space, origin, extents)
    assert cold == warm == fresh
    for access in cold:
        key = access.block_slice
        cached_pages = pages_for_region(space, key)
        repeat = pages_for_region(space, key)
        space.clear_translation_caches()
        plain = pages_for_region(space, key)
        assert cached_pages == repeat == plain


@st.composite
def block_and_slice(draw):
    """A one-block space with a drawn block shape and a slice of it;
    the outer axes reach 48 rows, so many slices span 16 or more."""
    rank = draw(st.integers(1, 3))
    outer_max = 48 if rank == 2 else 8
    bb = tuple(draw(st.integers(1, outer_max)) for _ in range(rank - 1))
    bb += (draw(st.integers(1, 48)),)
    element_size = draw(st.sampled_from([1, 2, 4, 8]))
    block_slice = []
    for extent in bb:
        start = draw(st.integers(0, extent - 1))
        block_slice.append((start, draw(st.integers(start + 1, extent))))
    space = Space.create(1, bb, element_size, GEOMETRY, bb_override=bb)
    return space, tuple(block_slice)


def _element_pages(space, block_slice):
    """Pages a block slice touches, one element at a time: the block's
    bytes are row-major and split sequentially into ``pages_per_block``
    pages, so each byte of an element lies on page
    ``byte_offset // page_bytes``."""
    page_bytes = -(-space.block_bytes // space.pages_per_block)
    elem = space.element_size
    pages = set()
    for index in itertools.product(*(range(lo, hi)
                                     for lo, hi in block_slice)):
        offset = int(np.ravel_multi_index(index, space.bb)) * elem
        pages.update((offset + b) // page_bytes for b in range(elem))
    return sorted(pages)


@settings(max_examples=80, deadline=None)
@given(block_and_slice())
@example((Space.create(1, (256, 256), 4, GEOMETRY, bb_override=(256, 256)),
          ((0, 256), (0, 64))))
@example((Space.create(1, (32, 32), 1, GEOMETRY, bb_override=(32, 32)),
          ((3, 29), (5, 6))))
def test_pages_match_element_reference(data):
    """``pages_for_region`` equals the element-by-element page set, on
    a cold memo and on a warm one."""
    space, block_slice = data
    expected = _element_pages(space, block_slice)
    space.clear_translation_caches()
    cold = pages_for_region(space, block_slice)
    warm = pages_for_region(space, block_slice)
    assert cold == warm == expected


def _tiny_tile_ops(draw, dims):
    ops = []
    for _ in range(draw(st.integers(3, 10))):
        origin = tuple(draw(st.integers(0, d - 1)) for d in dims)
        extents = tuple(draw(st.integers(1, d - o))
                        for o, d in zip(origin, dims))
        ops.append((draw(st.sampled_from(["read", "write"])),
                    origin, extents))
    return ops


def _drive(system_cls, dims, ops, memo, faults):
    # memo off: nothing enters the memo, so every lookup recomputes
    remember = translator._remember if memo else (lambda *args: None)
    with mock.patch.object(translator, "_remember", remember):
        system = system_cls(TINY_TEST, store_data=False, faults=faults)
        ends = []
        result = system.ingest("d", dims, 4)
        ends.append(result.end_time)
        clock = result.end_time
        for kind, origin, extents in ops:
            if kind == "read":
                result = system.read_tile("d", origin, extents,
                                          start_time=clock)
            else:
                result = system.write_tile("d", origin, extents,
                                           start_time=clock)
            ends.append(result.end_time)
            clock = result.end_time
    return [e.hex() for e in ends]


@settings(max_examples=15, deadline=None)
@given(st.data())
@pytest.mark.parametrize("system_cls", [SoftwareNdsSystem,
                                        HardwareNdsSystem],
                         ids=["software", "hardware"])
def test_memo_invisible_under_overwrite_churn(system_cls, data):
    """Overwrite churn through GC: the translation memo must be
    invisible to every op's end time."""
    dims = (data.draw(st.integers(8, 24)), data.draw(st.integers(8, 24)))
    ops = _tiny_tile_ops(data.draw, dims)
    cached = _drive(system_cls, dims, ops, memo=True, faults=None)
    plain = _drive(system_cls, dims, ops, memo=False, faults=None)
    assert cached == plain


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_memo_invisible_with_fault_injection(data):
    """With an injector attached, retries, program fails and bad-block
    re-placement run inside the same flash chains; the translation memo
    must stay invisible under that churn too."""
    dims = (data.draw(st.integers(8, 20)), data.draw(st.integers(8, 20)))
    ops = _tiny_tile_ops(data.draw, dims)
    faults = FaultConfig(seed=data.draw(st.integers(0, 2 ** 16)),
                         rber_base=2e-3,
                         program_fail_base=0.02)
    cached = _drive(HardwareNdsSystem, dims, ops, memo=True, faults=faults)
    plain = _drive(HardwareNdsSystem, dims, ops, memo=False, faults=faults)
    assert cached == plain


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_batched_fanout_readback_bytes_exact(data):
    """Functional gate: ingest + random overwrites through the batched
    program fan-out, then read back random tiles and compare against a
    numpy mirror byte for byte."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    dims = (data.draw(st.integers(8, 20)), data.draw(st.integers(8, 20)))
    system_cls = data.draw(st.sampled_from([SoftwareNdsSystem,
                                            HardwareNdsSystem]))
    system = system_cls(TINY_TEST, store_data=True)
    mirror = rng.integers(0, 2 ** 31, dims).astype(np.int32)
    system.ingest("d", dims, 4, data=mirror)
    clock = 0.0
    for _ in range(data.draw(st.integers(1, 6))):
        origin = tuple(data.draw(st.integers(0, d - 1)) for d in dims)
        extents = tuple(data.draw(st.integers(1, d - o))
                        for o, d in zip(origin, dims))
        patch = rng.integers(0, 2 ** 31, extents).astype(np.int32)
        result = system.write_tile("d", origin, extents, data=patch,
                                   start_time=clock)
        clock = result.end_time
        slicer = tuple(slice(o, o + e) for o, e in zip(origin, extents))
        mirror = mirror.copy()
        mirror[slicer] = patch
    origin = tuple(data.draw(st.integers(0, d - 1)) for d in dims)
    extents = tuple(data.draw(st.integers(1, d - o))
                    for o, d in zip(origin, dims))
    result = system.read_tile("d", origin, extents, start_time=clock,
                              with_data=True, dtype=np.dtype(np.int32))
    slicer = tuple(slice(o, o + e) for o, e in zip(origin, extents))
    np.testing.assert_array_equal(result.data, mirror[slicer])


# ----------------------------------------------------------------------
# incremental free-space index
# ----------------------------------------------------------------------
def _recount(plane) -> int:
    """Brute-force free pages: free pool plus the active block's tail."""
    ppb = plane.geometry.pages_per_block
    count = len(list(plane.free_blocks)) * ppb
    if plane.active_block is not None:
        count += ppb - plane.blocks[plane.active_block].next_page
    return count


def _assert_free_counts(planes) -> None:
    for key, plane in planes.items():
        assert plane.free_pages == _recount(plane), key
        assert plane.free_page_count() == plane.free_pages


def _scan_low_planes(stl):
    """Planes below the background watermark by the old float test."""
    per_bank = stl.geometry.pages_per_bank
    return {key for key, plane in stl.allocator.planes.items()
            if _recount(plane) / per_bank < stl.gc.watermark}


def _fault_config(draw, geometry, horizon):
    plan = FaultPlan()
    for _ in range(draw(st.integers(0, 3))):
        plan.mark_block_bad(draw(st.integers(0, geometry.channels - 1)),
                            draw(st.integers(0, geometry.banks_per_channel - 1)),
                            draw(st.integers(0, geometry.blocks_per_bank - 1)),
                            at=draw(st.floats(0.0, horizon)))
    return FaultConfig(seed=draw(st.integers(0, 2 ** 16)),
                       program_fail_base=draw(st.sampled_from([0.0, 0.05])),
                       plan=plan)


def _mark_victim_bad(draw, flash, planes) -> None:
    """Grow a bad block under a plane's next GC victim: the block is
    fully written, so its erase fails and GC retires it."""
    key = draw(st.sampled_from(sorted(planes)))
    victims = planes[key].victim_candidates()
    if victims:
        flash.faults.bad_blocks.add(
            planes[key].base // flash.geometry.pages_per_block + victims[0])


def _checked_background(stl, now, budget):
    """Run ``collect_background`` and check it visits exactly the planes
    the old full scan would: ``sorted(planes, key=free_fraction)``
    (stable, channel-major ties), those below the watermark, until the
    budget runs out."""
    per_bank = stl.geometry.pages_per_bank
    planes = stl.allocator.planes
    order = sorted(planes, key=lambda key: _recount(planes[key]) / per_bank)
    expected = [key for key in order
                if _recount(planes[key]) / per_bank < stl.gc.watermark]
    visited = []
    collect = stl.gc.collect

    def recording(channel, bank, *args, **kwargs):
        visited.append((channel, bank))
        return collect(channel, bank, *args, **kwargs)

    stl.gc.collect = recording
    try:
        result = stl.gc.collect_background(now, budget)
    finally:
        del stl.gc.collect
    assert visited == expected[:len(visited)]
    if len(visited) < len(expected):
        assert result.end_time >= now + budget
    if not expected:
        assert (result.units_relocated, result.blocks_erased) == (0, 0)
    return result


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_free_space_index_matches_recount_stl(data):
    """Overwrite churn on a tiny STL with foreground GC, interleaved
    background GC and program-fail / erase-fail block retirement: after
    every step each plane's counter equals a recount and the
    below-watermark set equals a scan."""
    geometry = Geometry(channels=2, banks_per_channel=2, blocks_per_bank=6,
                        pages_per_block=4, page_size=64)
    timing = NvmTiming(t_read=1e-6, t_program=5e-6, t_erase=20e-6,
                       channel_bandwidth=100e6)
    flash = FlashArray(geometry, timing, store_data=False)
    flash.attach_faults(FaultInjector(
        _fault_config(data.draw, geometry, horizon=2e-3)))
    stl = SpaceTranslationLayer(
        flash, gc_threshold=data.draw(st.sampled_from([0.1, 0.25, 0.4])))
    space = stl.create_space((32, 32), 2)
    planes = stl.allocator.planes
    now = 0.0
    try:
        for _ in range(data.draw(st.integers(4, 30))):
            step = data.draw(st.integers(0, 5))
            if step == 0:
                _mark_victim_bad(data.draw, flash, planes)
            elif step == 1:
                budget = data.draw(st.sampled_from([1e-9, 3e-5, 1.0]))
                now = _checked_background(stl, now, budget).end_time
            else:
                sub_dim = tuple(data.draw(st.sampled_from([8, 16, 32]))
                                for _ in range(2))
                coordinate = tuple(data.draw(st.integers(0, 32 // f - 1))
                                   for f in sub_dim)
                now = stl.write(space.space_id, coordinate, sub_dim,
                                start_time=now).end_time
            _assert_free_counts(planes)
            assert stl.gc.low_planes == _scan_low_planes(stl)
    except (CapacityError, OutOfSpaceError):
        pass  # retirement ate the tiny device; the index must still hold
    _assert_free_counts(planes)
    assert stl.gc.low_planes == _scan_low_planes(stl)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_free_space_index_matches_recount_baseline(data):
    """The baseline FTL's planes keep the same counter: overwrite churn
    through FTL GC with program-fail and erase-fail retirement."""
    faults = _fault_config(data.draw, TINY_TEST.geometry, horizon=5e-3)
    system = BaselineSystem(TINY_TEST, store_data=False, faults=faults)
    dims = (64, 64)
    now = system.ingest("d", dims, 4).end_time
    planes = system.ssd.ftl.planes
    _assert_free_counts(planes)
    try:
        for _ in range(data.draw(st.integers(4, 16))):
            if data.draw(st.booleans()):
                _mark_victim_bad(data.draw, system.ssd.flash, planes)
            origin = tuple(data.draw(st.integers(0, 32)) for _ in dims)
            extents = tuple(data.draw(st.integers(16, d - o))
                            for o, d in zip(origin, dims))
            now = system.write_tile("d", origin, extents,
                                    start_time=now).end_time
            _assert_free_counts(planes)
    except OutOfSpaceError:
        pass
    _assert_free_counts(planes)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_free_space_index_matches_recount_baseline_no_faults(data):
    """The fault-free batched write loop (no injector attached) under
    overwrite churn through FTL GC, through both the host I/O engine
    (a drawn LPN list as one run of consecutive-LPN requests) and
    ``write_lpns`` (duplicate LPNs inside one request): after every
    write the free counts equal a recount, the map and the owner slots
    form one bijection, and the stored pages read back as the
    numpy mirror predicts."""
    ssd = BaselineSSD(TINY_TEST, store_data=True)
    assert ssd.flash.faults is None
    engine = HostIoEngine(ssd, Link(TINY_TEST.link_bandwidth,
                                    TINY_TEST.link_command_overhead),
                          HostCpu())
    planes = ssd.ftl.planes
    page = ssd.page_size
    # half to two thirds of the logical space live: GC-dense, yet each
    # plane keeps room for a victim's survivors (near full logical
    # capacity the tiny geometry's FTL GC can run out of free pages)
    live = data.draw(st.integers(ssd.logical_pages // 2,
                                 ssd.logical_pages * 2 // 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    mirror = {}

    def write(lpns, now):
        payload = [rng.integers(0, 256, page, dtype=np.uint8)
                   for _ in lpns]
        if data.draw(st.booleans()):
            # one engine call: a request per maximal run of consecutive
            # LPNs (a duplicate starts a new request)
            run = IoRun(payloads=[])
            start = 0
            for index in range(1, len(lpns) + 1):
                if index == len(lpns) or lpns[index] != lpns[index - 1] + 1:
                    count = index - start
                    run.append(lpns[start], count, count * page, None,
                               payload[start:index])
                    start = index
            end = engine.run_writes(run, now).end_time
        else:
            end = ssd.write_lpns(lpns, now, data=payload).end_time
        for lpn, chunk in zip(lpns, payload):
            mirror[lpn] = chunk  # a later duplicate wins
        return end

    def check():
        _assert_free_counts(planes)
        forward = {ppa: lpn for lpn, ppa in ssd.ftl.map.items()}
        assert len(forward) == len(ssd.ftl.map)
        assert forward == dict(live_slots(planes))
        lpns = sorted(mirror)
        back = ssd.read_lpns(lpns, with_data=True).data
        assert all(np.array_equal(got, mirror[lpn])
                   for lpn, got in zip(lpns, back))

    now = write(list(range(live)), 0.0)
    check()
    for _ in range(data.draw(st.integers(4, 24))):
        size = data.draw(st.integers(1, 32))
        lpns = data.draw(st.lists(st.integers(0, live - 1),
                                  min_size=size, max_size=size))
        if data.draw(st.booleans()):
            lpns.append(lpns[0])  # the same LPN twice in one request
        now = write(lpns, now)
        check()
