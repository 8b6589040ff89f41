"""Per-set storage of CacheBank: lookup filters, occupancy, the helping
count, LRU queries, and the tag map behind them."""

import pytest

from repro.cache.bank import CacheBank
from repro.cache.block import BlockClass, L2Line


def block(addr, cls=BlockClass.SHARED, owner=-1, lru=0, tokens=1):
    entry = L2Line(block=addr, cls=cls, owner=owner, tokens=tokens)
    entry.lru = lru
    return entry


def one_set(ways):
    """A bank of one set: ``(bank, set_index)``."""
    return CacheBank(0, num_sets=1, ways=ways), 0


class TestFind:
    def test_finds_by_address(self):
        s, i = one_set(4)
        entry = block(0x10)
        s.install(i, 0, entry)
        assert s.peek(i, 0x10) is entry
        assert s.peek(i, 0x11) is None

    def test_class_filter(self):
        s, i = one_set(4)
        s.install(i, 0, block(0x10, BlockClass.PRIVATE, owner=2))
        assert s.peek(i, 0x10, classes=(BlockClass.SHARED,)) is None
        assert s.peek(i, 0x10, classes=(BlockClass.PRIVATE,)) is not None

    def test_owner_filter(self):
        s, i = one_set(4)
        s.install(i, 0, block(0x10, BlockClass.PRIVATE, owner=2))
        assert s.peek(i, 0x10, owner=3) is None
        assert s.peek(i, 0x10, owner=2) is not None

    def test_same_block_two_classes(self):
        # A replica and a shared copy of the same block may coexist;
        # the unfiltered probe finds the lowest way whatever the
        # install order.
        s, i = one_set(4)
        s.install(i, 2, block(0x10, BlockClass.SHARED))
        s.install(i, 1, block(0x10, BlockClass.REPLICA, owner=1))
        assert s.peek(i, 0x10, classes=(BlockClass.REPLICA,)).cls is BlockClass.REPLICA
        assert s.peek(i, 0x10, classes=(BlockClass.SHARED,)).cls is BlockClass.SHARED
        assert s.peek(i, 0x10).way == 1


class TestHelpingCounter:
    def test_counts_install_and_remove(self):
        s, i = one_set(4)
        replica = block(0x1, BlockClass.REPLICA, owner=0)
        victim = block(0x2, BlockClass.VICTIM, owner=1)
        s.install(i, 0, replica)
        s.install(i, 1, victim)
        s.install(i, 2, block(0x3, BlockClass.PRIVATE, owner=0))
        assert s.helping[i] == 2
        s.remove(i, replica)
        assert s.helping[i] == 1

    def test_overwrite_adjusts_counter(self):
        s, i = one_set(2)
        s.install(i, 0, block(0x1, BlockClass.VICTIM, owner=0))
        s.install(i, 0, block(0x2, BlockClass.PRIVATE, owner=0))
        assert s.helping[i] == 0
        assert s.peek(i, 0x1) is None and s.fill[i] == 1

    def test_reclassify_updates_counter(self):
        s, i = one_set(2)
        victim = block(0x1, BlockClass.VICTIM, owner=0)
        s.install(i, 0, victim)
        s.reclassify(i, victim, BlockClass.SHARED)
        assert s.helping[i] == 0
        assert victim.cls is BlockClass.SHARED

    def test_counter_round_trips(self):
        """install / reclassify-away / reclassify-back / remove leave
        the counter exactly where a recount would."""
        s, i = one_set(4)
        replica = block(0x1, BlockClass.REPLICA, owner=0)
        s.install(i, 0, replica)
        s.install(i, 1, block(0x2, BlockClass.SHARED))
        assert s.helping[i] == 1
        s.reclassify(i, replica, BlockClass.PRIVATE)
        assert s.helping[i] == 0
        s.reclassify(i, replica, BlockClass.VICTIM)
        assert s.helping[i] == 1
        s.remove(i, replica)
        assert s.helping[i] == 0
        assert s.helping[i] == s.count(i, lambda b: b.is_helping)


class TestInstallGuards:
    def test_way_out_of_range(self):
        s, i = one_set(4)
        with pytest.raises(IndexError):
            s.install(i, 4, block(0x1))
        with pytest.raises(IndexError):
            s.install(i, -1, block(0x1))

    def test_duplicate_resident_copy_rejected(self):
        s, i = one_set(4)
        s.install(i, 0, block(0x10, BlockClass.REPLICA, owner=1))
        with pytest.raises(ValueError, match="duplicate"):
            s.install(i, 1, block(0x10, BlockClass.REPLICA, owner=1))
        # The failed install must not have touched the counter.
        assert s.helping[i] == 1

    def test_overwrite_same_key_in_place_allowed(self):
        # Replacing a copy with a fresh entry of the same
        # (block, class, owner) in the same way is legitimate.
        s, i = one_set(4)
        s.install(i, 0, block(0x10, BlockClass.VICTIM, owner=2))
        fresh = block(0x10, BlockClass.VICTIM, owner=2)
        s.install(i, 0, fresh)
        assert s.helping[i] == 1
        assert s.peek(i, 0x10) is fresh and fresh.next is None

    def test_distinct_class_or_owner_not_duplicates(self):
        s, i = one_set(4)
        s.install(i, 0, block(0x10, BlockClass.SHARED))
        s.install(i, 1, block(0x10, BlockClass.REPLICA, owner=0))
        s.install(i, 2, block(0x10, BlockClass.REPLICA, owner=1))
        assert s.helping[i] == 2
        assert s.peek(i, 0x10, owner=1).way == 2

    def test_reclassify_foreign_entry_rejected(self):
        s, i = one_set(4)
        s.install(i, 0, block(0x10, BlockClass.VICTIM, owner=0))
        foreign = block(0x10, BlockClass.VICTIM, owner=0)
        with pytest.raises(ValueError):
            s.reclassify(i, foreign, BlockClass.SHARED)
        assert s.helping[i] == 1


class TestLruQueries:
    def test_lru_block_overall(self):
        s, i = one_set(4)
        s.install(i, 0, block(0x1, lru=5))
        s.install(i, 1, block(0x2, lru=2))
        s.install(i, 2, block(0x3, lru=9))
        assert s.lru_line(i).block == 0x2

    def test_lru_block_with_predicate(self):
        s, i = one_set(4)
        s.install(i, 0, block(0x1, BlockClass.PRIVATE, owner=0, lru=1))
        s.install(i, 1, block(0x2, BlockClass.REPLICA, owner=0, lru=2))
        s.install(i, 2, block(0x3, BlockClass.VICTIM, owner=1, lru=3))
        assert s.lru_line(i, lambda b: b.is_helping).block == 0x2

    def test_lru_none_when_no_match(self):
        s, i = one_set(2)
        s.install(i, 0, block(0x1, BlockClass.PRIVATE, owner=0))
        assert s.lru_line(i, lambda b: b.is_helping) is None


class TestOccupancy:
    def test_free_way(self):
        s, i = one_set(2)
        assert s.free_way(i) == 0
        s.install(i, 0, block(0x1))
        assert s.free_way(i) == 1
        s.install(i, 1, block(0x2))
        assert s.free_way(i) is None

    def test_find_way_raises_for_foreign_block(self):
        # Removing a line that is not resident is a caller bug.
        s, i = one_set(2)
        with pytest.raises(ValueError):
            s.remove(i, block(0x99))

    def test_count(self):
        s, i = one_set(4)
        s.install(i, 0, block(0x1, BlockClass.PRIVATE, owner=0))
        s.install(i, 1, block(0x2, BlockClass.SHARED))
        assert s.count(i, lambda b: b.cls is BlockClass.PRIVATE) == 1
