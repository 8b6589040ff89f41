"""CacheBank: lookups, statistics, roles, monitor hook."""

from repro.cache.bank import CacheBank, SetRole
from repro.cache.block import BlockClass, L2Line


def entry(addr, cls=BlockClass.SHARED, owner=-1):
    return L2Line(block=addr, cls=cls, owner=owner, tokens=1)


class TestLookup:
    def test_hit_and_miss_statistics(self):
        bank = CacheBank(0, num_sets=2, ways=2)
        bank.allocate(0, entry(0x10))
        assert bank.lookup(0, 0x10) is not None
        assert bank.lookup(0, 0x20) is None
        assert bank.hits[BlockClass.SHARED] == 1
        assert bank.misses == 1
        assert bank.total_hits == 1

    def test_lookup_touches_lru(self):
        bank = CacheBank(0, num_sets=1, ways=2)
        a, b = entry(1), entry(2)
        bank.allocate(0, a)
        bank.allocate(0, b)
        bank.lookup(0, 1)  # a becomes MRU
        _, evicted = bank.allocate(0, entry(3))
        assert evicted is b

    def test_peek_does_not_touch_or_record(self):
        bank = CacheBank(0, num_sets=1, ways=2)
        a, b = entry(1), entry(2)
        bank.allocate(0, a)
        bank.allocate(0, b)
        bank.peek(0, 1)
        assert bank.misses == 0 and bank.total_hits == 0
        _, evicted = bank.allocate(0, entry(3))
        assert evicted is a  # peek did not refresh a


class TestHelpingLimit:
    def test_unbounded_without_nmax(self):
        bank = CacheBank(0, num_sets=4, ways=8)
        assert bank.helping_limit(0) == 8

    def test_roles_modulate_nmax(self):
        bank = CacheBank(0, num_sets=4, ways=8)
        bank.nmax = 3
        bank.assign_role(0, SetRole.REFERENCE)
        bank.assign_role(1, SetRole.EXPLORER)
        bank.assign_role(2, SetRole.CONVENTIONAL_SAMPLE)
        assert bank.helping_limit(0) == 0
        assert bank.helping_limit(1) == 4
        assert bank.helping_limit(2) == 3
        assert bank.helping_limit(3) == 3

    def test_explorer_capped_at_ways(self):
        bank = CacheBank(0, num_sets=1, ways=4)
        bank.nmax = 4
        bank.assign_role(0, SetRole.EXPLORER)
        assert bank.helping_limit(0) == 4


class TestMonitorHook:
    def test_monitor_called_only_for_assigned_sets(self):
        bank = CacheBank(0, num_sets=2, ways=2)
        events = []
        bank.monitor = lambda b, s, fc: events.append((s, fc))
        bank.assign_role(0, SetRole.REFERENCE)
        bank.allocate(0, entry(0x10))
        bank.lookup(0, 0x10)       # monitored, first-class hit
        bank.lookup(1, 0x999)      # unmonitored set
        assert events == [(0, True)]

    def test_helping_hit_reports_not_first_class(self):
        bank = CacheBank(0, num_sets=1, ways=2)
        events = []
        bank.monitor = lambda b, s, fc: events.append(fc)
        bank.assign_role(0, SetRole.CONVENTIONAL_SAMPLE)
        bank.allocate(0, entry(0x10, BlockClass.REPLICA, owner=0))
        bank.lookup(0, 0x10)
        bank.lookup(0, 0x77)
        assert events == [False, False]


class TestMutators:
    def test_reclassify_and_occupancy(self):
        bank = CacheBank(0, num_sets=1, ways=2)
        victim = entry(1, BlockClass.VICTIM, owner=3)
        bank.allocate(0, victim)
        assert bank.occupancy() == 1
        bank.reclassify(0, victim, BlockClass.SHARED)
        assert victim.cls is BlockClass.SHARED

    def test_remove(self):
        bank = CacheBank(0, num_sets=1, ways=2)
        e = entry(1)
        bank.allocate(0, e)
        bank.remove(0, e)
        assert bank.occupancy() == 0

    def test_reset_stats(self):
        bank = CacheBank(0, num_sets=1, ways=2)
        bank.allocate(0, entry(1))
        bank.lookup(0, 1)
        bank.reset_stats()
        assert bank.total_hits == 0 and bank.allocations == 0
