"""L1 cache: exact LRU, fills, merges, invalidation, reuse bit."""

from repro.cache.l1 import L1Cache


class TestBasics:
    def test_hit_miss_counters(self):
        # Demand hits and misses are counted by the system and flushed
        # into the L1's own scope.
        from tests.util import build

        system = build("shared", check_tokens=False)
        system.access(0, 0x10, False, 0)
        system.access(0, 0x10, False, 1000)
        system.flush()
        l1 = system.l1s[0]
        assert (l1.stats.get("hits").value,
                l1.stats.get("misses").value) == (1, 1)

    def test_set_isolation(self):
        l1 = L1Cache(0, num_sets=2, assoc=1)
        l1.fill(0, tokens=1, dirty=False)   # set 0
        l1.fill(1, tokens=1, dirty=False)   # set 1
        assert l1.lookup(0) and l1.lookup(1)

    def test_occupancy(self):
        l1 = L1Cache(0, num_sets=2, assoc=2)
        l1.fill(0, 1, False)
        l1.fill(2, 1, False)
        assert l1.occupancy() == 2
        assert sorted(l1.resident_blocks()) == [0, 2]


class TestEviction:
    def test_lru_eviction_within_set(self):
        l1 = L1Cache(0, num_sets=1, assoc=2)
        l1.fill(1, 1, False)
        l1.fill(2, 1, False)
        l1.lookup(1)  # 2 becomes LRU
        _, evicted, _ = l1.fill(3, 1, False)
        assert evicted is not None and evicted.block == 2

    def test_no_eviction_when_room(self):
        l1 = L1Cache(0, num_sets=1, assoc=2)
        _, evicted, merged = l1.fill(1, 1, False)
        assert not merged
        assert evicted is None


class TestMergeAndInvalidate:
    def test_refill_merges_tokens_and_dirty(self):
        l1 = L1Cache(0, num_sets=1, assoc=2)
        line, _, _ = l1.fill(1, tokens=2, dirty=False)
        merged, evicted, was_merge = l1.fill(1, tokens=3, dirty=True)
        assert merged is line and evicted is None and was_merge
        assert line.tokens == 5 and line.dirty

    def test_invalidate(self):
        l1 = L1Cache(0, num_sets=1, assoc=2)
        l1.fill(1, 1, False)
        line = l1.invalidate(1)
        assert line is not None
        assert l1.invalidate(1) is None
        assert l1.lookup(1) is None


class TestReuseBit:
    def test_fresh_line_not_reused(self):
        l1 = L1Cache(0, num_sets=1, assoc=2)
        line, _, _ = l1.fill(1, 1, False)
        assert not line.reused

    def test_hit_sets_reused(self):
        l1 = L1Cache(0, num_sets=1, assoc=2)
        line, _, _ = l1.fill(1, 1, False)
        l1.lookup(1)
        assert line.reused
