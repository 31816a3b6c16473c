"""Tests for the §7.1 system cache on the baseline: the DRAM tier."""

import pytest

from repro.cache import CacheConfig, HostTierCache
from repro.nvm import TINY_TEST
from repro.systems import BaselineSystem

PAGE = 4096


def page_tier(capacity_pages):
    """A DRAM tier holding ``capacity_pages`` one-page runs."""
    return HostTierCache(CacheConfig(capacity_bytes=capacity_pages * PAGE))


def access(tier, pages):
    """One page-cache access, as the baseline read path makes it: look
    each one-page run up and insert it on a miss. Returns the hit and
    the missed pages, in request order."""
    hits, misses = [], []
    for page in pages:
        key = ("lpn", page, page)
        if tier.lookup(key) is not None:
            hits.append(page)
        else:
            misses.append(page)
            tier.insert(key, PAGE, 0.0)
    return tuple(hits), tuple(misses)


class TestLpnRunTier:
    """The §7.1 page cache is the DRAM tier keyed by LPN run."""

    def test_cold_then_warm(self):
        tier = page_tier(8)
        assert access(tier, [1, 2, 3]) == ((), (1, 2, 3))
        hits, misses = access(tier, [2, 3, 4])
        assert hits == (2, 3)
        assert misses == (4,)
        assert tier.counters["hits"] == 2
        assert tier.counters["misses"] == 4

    def test_lru_eviction(self):
        tier = page_tier(2)
        access(tier, [1, 2])
        access(tier, [3])          # evicts 1
        assert not tier.contains(("lpn", 1, 1))
        hits, misses = access(tier, [1, 2, 3])
        assert 1 in misses
        assert set(hits) <= {2, 3}
        assert tier.total_bytes <= 2 * PAGE

    def test_access_refreshes_recency(self):
        tier = page_tier(2)
        access(tier, [1, 2])
        access(tier, [1])           # 1 becomes most recent
        access(tier, [3])           # evicts 2, not 1
        assert access(tier, [1, 2]) == ((1,), (2,))

    def test_invalidate(self):
        tier = page_tier(4)
        access(tier, [1, 2])
        tier.invalidate(("lpn", 1, 1))
        assert access(tier, [1, 2]) == ((2,), (1,))

    def test_disabled_cache_never_hits(self):
        """Without ``cache=`` there is no tier: a repeated read goes
        back to the device every time."""
        system = BaselineSystem(TINY_TEST, store_data=False, cache=None)
        system.ingest("m", (64, 64), 4)
        system.reset_time()
        first = system.read_tile("m", (0, 0), (16, 64))
        system.reset_time()
        again = system.read_tile("m", (0, 0), (16, 64))
        assert again.fetched_bytes == first.fetched_bytes > 0
        assert system.cache_report() is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity_bytes=-1)

    def test_global_hit_ratio(self):
        tier = page_tier(8)
        access(tier, [1, 2])
        access(tier, [1, 2])
        assert tier.report()["hit_rate"] == pytest.approx(0.5)


class TestBaselineWithCache:
    def test_repeated_column_fetch_speeds_up(self):
        """§7.1: the cache serves later column requests without the SSD
        — adjacent column stripes reuse the fetched pages."""
        system = BaselineSystem(TINY_TEST, store_data=False,
                                cache=CacheConfig(capacity_bytes=1 << 20))
        system.ingest("m", (128, 128), 4)
        system.reset_time()
        cold = system.read_tile("m", (0, 0), (128, 16))
        system.reset_time()
        warm = system.read_tile("m", (0, 16), (128, 16))  # same pages
        assert warm.elapsed < cold.elapsed / 2
        assert system.cache_report()["hits"] > 0

    def test_write_invalidates(self):
        system = BaselineSystem(TINY_TEST, store_data=False,
                                cache=CacheConfig(capacity_bytes=1 << 20))
        system.ingest("m", (64, 64), 4)
        system.reset_time()
        system.read_tile("m", (0, 0), (16, 64))
        system.write_tile("m", (0, 0), (16, 64))
        system.reset_time()
        again = system.read_tile("m", (0, 0), (16, 64))
        assert again.fetched_bytes > 0  # went back to the device

    def test_functional_mode_with_cache_rejected(self, rng):
        import numpy as np
        system = BaselineSystem(TINY_TEST, store_data=True,
                                cache=CacheConfig())
        data = rng.integers(0, 99, (32, 32)).astype(np.int32)
        system.ingest("m", (32, 32), 4, data=data)
        with pytest.raises(NotImplementedError):
            system.read_tile("m", (0, 0), (8, 8), with_data=True)

    def test_default_cache_disabled(self):
        system = BaselineSystem(TINY_TEST)
        assert system.tier is None
        assert system.cache_report() is None
