"""Unit tests for HostTierCache: byte budget, dirty set, counters."""

import pytest

from repro.cache import CacheConfig, HostTierCache
from repro.cache.tier import COUNTER_KEYS


def make_tier(**kwargs):
    kwargs.setdefault("capacity_bytes", 4096)
    return HostTierCache(CacheConfig(**kwargs))


class TestLookupAndInsert:
    def test_miss_then_hit(self):
        tier = make_tier()
        assert tier.lookup("k") is None
        tier.insert("k", 100, 0.0)
        entry = tier.lookup("k")
        assert entry is not None and entry.nbytes == 100
        assert tier.counters["misses"] == 1
        assert tier.counters["hits"] == 1

    def test_contains_and_get_do_not_count(self):
        tier = make_tier()
        tier.insert("k", 100, 0.0)
        assert tier.contains("k")
        assert tier.get("k") is not None
        assert not tier.contains("other")
        assert tier.counters["hits"] == 0
        assert tier.counters["misses"] == 0

    def test_refresh_in_place_adjusts_bytes(self):
        tier = make_tier()
        tier.insert("k", 100, 0.0)
        tier.insert("k", 300, 0.0)
        assert tier.total_bytes == 300
        assert tier.counters["insertions"] == 1


class TestEviction:
    def test_budget_enforced_in_lru_order(self):
        tier = make_tier(capacity_bytes=250)
        tier.insert("a", 100, 0.0)
        tier.insert("b", 100, 0.0)
        tier.lookup("a")  # refresh: b is now coldest
        tier.insert("c", 100, 0.0)
        assert tier.contains("a") and tier.contains("c")
        assert not tier.contains("b")
        assert tier.counters["evictions"] == 1
        assert tier.total_bytes <= 250

    def test_oversized_insert_evicts_everything_needed(self):
        tier = make_tier(capacity_bytes=250)
        for key in "abc":
            tier.insert(key, 100, 0.0)
        assert len(tier.entries) == 2
        tier.insert("huge", 240, 0.0)
        assert tier.contains("huge")
        assert len(tier.entries) == 1

    def test_admission_rejections_counted(self):
        tier = make_tier(policy="admission")
        tier.insert("one-touch", 100, 0.0)
        assert not tier.contains("one-touch")
        assert tier.counters["rejected"] == 1
        tier.insert("one-touch", 100, 0.0)  # second touch admits
        assert tier.contains("one-touch")

    def test_dirty_insert_bypasses_admission(self):
        """Regression: a write-back buffer insert is never subject to
        the doorkeeper — rejecting it would silently drop the write."""
        tier = make_tier(policy="admission", write_back=True)
        tier.insert("first-touch-write", 100, 0.0, dirty=True)
        assert tier.contains("first-touch-write")
        assert tier.get("first-touch-write").dirty
        assert tier.counters["rejected"] == 0

    def test_invalidate_drops_without_flush(self):
        flushed = []
        tier = make_tier(write_back=True)
        tier.flush_fn = lambda entry, now: flushed.append(entry.key) or now
        tier.insert("k", 100, 0.0, dirty=True)
        tier.invalidate("k")
        assert not tier.contains("k")
        assert flushed == []
        assert tier.counters["invalidations"] == 1
        assert tier.dirty_count == 0


class TestWriteBack:
    def test_dirty_bound_flushes_oldest_first(self):
        flushed = []
        tier = make_tier(write_back=True, dirty_max=2)
        tier.flush_fn = lambda entry, now: flushed.append(entry.key) or now
        for key in "abc":
            tier.insert(key, 10, 0.0, dirty=True)
        assert flushed == ["a"]
        assert tier.dirty_count == 2
        assert tier.counters["writebacks"] == 1
        # flushed entries stay resident, just clean
        assert tier.contains("a") and not tier.get("a").dirty

    def test_eviction_flushes_dirty_victim(self):
        flushed = []
        tier = make_tier(capacity_bytes=150, write_back=True)
        tier.flush_fn = lambda entry, now: flushed.append(entry.key) or now
        tier.insert("a", 100, 0.0, dirty=True)
        tier.insert("b", 100, 0.0)
        assert flushed == ["a"]
        assert not tier.contains("a")

    def test_flush_all_is_a_fence(self):
        tier = make_tier(write_back=True, dirty_max=16)
        tier.flush_fn = lambda entry, now: now + 1.0
        for key in "abcd":
            tier.insert(key, 10, 0.0, dirty=True)
        end = tier.flush_all(5.0)
        assert end == 9.0  # four serialized flushes
        assert tier.dirty_count == 0
        assert tier.counters["writebacks"] == 4
        assert tier.flush_all(end) == end  # idempotent

    def test_dirty_bytes_matches_recount_under_churn(self):
        """The running dirty-byte count equals a recount of the dirty
        set through inserts, dirty refreshes that resize, flushes,
        evictions and invalidations."""
        import random

        rng = random.Random(7)
        tier = make_tier(capacity_bytes=600, write_back=True, dirty_max=4)
        tier.flush_fn = lambda entry, now: now
        for _ in range(400):
            key = rng.randrange(12)
            action = rng.random()
            if action < 0.6:
                tier.insert(key, rng.choice((40, 90, 150)), 0.0,
                            dirty=rng.random() < 0.6)
            elif action < 0.75:
                tier.flush_entry(key, 0.0)
            elif action < 0.9:
                tier.invalidate(key)
            else:
                tier.lookup(key)
            assert tier.dirty_bytes == sum(
                tier.entries[k].nbytes for k in tier.entries
                if tier.entries[k].dirty)

    def test_flush_without_callback_raises(self):
        tier = make_tier(write_back=True)
        tier.insert("k", 10, 0.0, dirty=True)
        with pytest.raises(RuntimeError):
            tier.flush_entry("k", 0.0)


class TestPrefetchAccounting:
    def test_prefetched_hit_counts_once(self):
        tier = make_tier()
        tier.insert("k", 100, 0.0, prefetched=True)
        assert tier.counters["prefetch_issued"] == 1
        tier.lookup("k")
        tier.lookup("k")
        assert tier.counters["prefetch_hits"] == 1  # first demand hit only
        assert tier.report()["prefetch_accuracy"] == 1.0


class TestGroups:
    def test_group_keys_track_residency(self):
        tier = make_tier(capacity_bytes=250)
        tier.insert("a", 100, 0.0, group="g")
        tier.insert("b", 100, 0.0, group="g")
        assert sorted(tier.group_keys("g")) == ["a", "b"]
        tier.insert("c", 100, 0.0)  # evicts a
        assert tier.group_keys("g") == ["b"]
        tier.invalidate("b")
        assert tier.group_keys("g") == []

    def test_group_keys_in_insertion_order(self):
        """Keys holding a dataset string hash differently per process
        (``PYTHONHASHSEED``); write-back flushes walk ``group_keys``,
        so its order must be insertion order, never hash order."""
        tier = make_tier(capacity_bytes=1 << 20)
        keys = [("nd", "emb", (0, 0), ((i, i + 1),)) for i in range(16)]
        for key in keys:
            tier.insert(key, 100, 0.0, group="g")
        assert tier.group_keys("g") == keys
        tier.invalidate(keys[3])
        assert tier.group_keys("g") == keys[:3] + keys[4:]


class TestReport:
    def test_report_carries_all_counters(self):
        tier = make_tier()
        report = tier.report()
        for key in COUNTER_KEYS:
            assert key in report
        assert report["policy"] == "lru"
        assert report["capacity_bytes"] == 4096
        assert report["write_back"] is False

    def test_hit_rate(self):
        tier = make_tier()
        tier.lookup("k")
        tier.insert("k", 10, 0.0)
        tier.lookup("k")
        assert tier.report()["hit_rate"] == 0.5

    def test_counters_snapshot_is_a_copy(self):
        tier = make_tier()
        snap = tier.counters_snapshot()
        tier.lookup("k")
        assert snap["misses"] == 0
        assert tier.counters["misses"] == 1
