"""Property-based tests for the baseline FTL and SSD."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ftl import BaselineSSD, PageMapFTL
from repro.nvm import Geometry, TINY_TEST
from tests.owner_slots import assert_live_counts, live_slots

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=60, deadline=None)
@given(channels=st.integers(1, 32), banks=st.integers(1, 8),
       lpn=st.integers(0, 10**6))
def test_stripe_target_is_stable_and_in_range(channels, banks, lpn):
    geometry = Geometry(channels=channels, banks_per_channel=banks)
    ftl = PageMapFTL(geometry)
    channel, bank = ftl.stripe_target(lpn)
    assert 0 <= channel < channels
    assert 0 <= bank < banks
    assert ftl.stripe_target(lpn) == (channel, bank)


@settings(max_examples=60, deadline=None)
@given(channels=st.integers(2, 16), count=st.integers(2, 64))
def test_consecutive_lpns_spread_over_channels(channels, count):
    """The striping invariant behind [P3]: a sequential LBA run covers
    min(count, channels) distinct channels."""
    geometry = Geometry(channels=channels, banks_per_channel=4)
    ftl = PageMapFTL(geometry)
    seen = {ftl.stripe_target(lpn)[0] for lpn in range(count)}
    assert len(seen) == min(count, channels)


@SETTINGS
@given(st.data())
def test_ssd_scattered_roundtrip(data):
    """Any interleaving of writes (with overwrites) reads back the last
    value written per page."""
    ssd = BaselineSSD(TINY_TEST, store_data=True)
    lpn_pool = data.draw(st.lists(st.integers(0, 50), min_size=1,
                                  max_size=30))
    expected = {}
    for serial, lpn in enumerate(lpn_pool):
        payload = np.full(ssd.page_size, (serial * 37 + lpn) % 251,
                          dtype=np.uint8)
        ssd.write_lpns([lpn], float(serial), data=[payload])
        expected[lpn] = payload[0]
    result = ssd.read_lpns(sorted(expected), 1000.0, with_data=True)
    for page, lpn in zip(result.data, sorted(expected)):
        assert page[0] == expected[lpn]


#: LPNs 0-7 are hot (one per plane, rewritten every churn round); each
#: round also writes the next 8 cold LPNs from 48 on, which stay live
COLD_BASE, CHURN_ROUNDS = 48, 30


@SETTINGS
@given(st.data())
def test_forward_and_reverse_maps_stay_consistent(data):
    """Drawn writes and trims over LPNs 0-40 run between rounds of a
    fixed churn that makes every plane collect: each round rewrites the
    hot LPNs and writes 8 new cold ones, so every erase block keeps
    live pages and each collection moves some before it erases the
    victim. Right before each erase, and at the end, every block's live
    count must count its filled slots; at the end the forward map and
    the owner slots must be one bijection."""
    ssd = BaselineSSD(TINY_TEST, store_data=False)
    erase_block = ssd.flash.erase_block

    def checked_erase(*args):
        # the victim's pages have all moved: its live count is 0 here
        assert_live_counts(ssd.ftl.planes)
        return erase_block(*args)

    ssd.flash.erase_block = checked_erase
    operations = data.draw(st.lists(
        st.tuples(st.sampled_from(["write", "trim"]),
                  st.integers(0, 40)),
        min_size=1, max_size=60))
    now = 0.0
    for step in range(max(CHURN_ROUNDS, len(operations))):
        if step < CHURN_ROUNDS:
            cold = COLD_BASE + 8 * step
            ssd.write_lpns(list(range(8)) + list(range(cold, cold + 8)),
                           now)
        if step < len(operations):
            op, lpn = operations[step]
            if op == "write":
                ssd.write_lpns([lpn], now)
            else:
                ssd.trim_lpns([lpn])
        now += 1e-3
    assert ssd.gc.total_relocated > 0
    # every forward mapping has exactly one live owner slot and vice
    # versa, and every block's live count counts its filled slots
    forward = dict(ssd.ftl.map)
    reverse = dict(live_slots(ssd.ftl.planes))
    assert_live_counts(ssd.ftl.planes)
    assert set(forward.values()) == set(reverse.keys())
    for lpn, idx in forward.items():
        assert reverse[idx] == lpn
