"""Shadow-tag dynamic partitioning (the Figure 4 costly baseline)."""

from repro.cache.bank import CacheBank
from repro.cache.block import BlockClass, L2Line
from repro.cache.shadow import ShadowTagPartition


def entry(addr, cls, owner=0):
    return L2Line(block=addr, cls=cls, owner=owner, tokens=1)


def make_bank(ways=4):
    policy = ShadowTagPartition(ways=ways, shadow_depth=4)
    return CacheBank(0, num_sets=2, ways=ways, policy=policy), policy


class TestLearning:
    def test_private_shadow_hit_grows_private_target(self):
        bank, policy = make_bank()
        state = policy._state(0, 0)
        start = state.target_private
        # Evict a private block, then miss on it again.
        for i in range(4):
            bank.allocate(0, entry(i, BlockClass.PRIVATE))
        _, evicted = bank.allocate(0, entry(10, BlockClass.PRIVATE))
        assert evicted is not None
        policy.observe_miss(0, 0, evicted.block, BlockClass.PRIVATE)
        assert state.target_private == start + 1

    def test_shared_shadow_hit_shrinks_private_target(self):
        bank, policy = make_bank()
        state = policy._state(0, 0)
        start = state.target_private
        for i in range(4):
            bank.allocate(0, entry(i, BlockClass.SHARED, owner=-1))
        _, evicted = bank.allocate(0, entry(20, BlockClass.SHARED, owner=-1))
        policy.observe_miss(0, 0, evicted.block, BlockClass.SHARED)
        assert state.target_private == start - 1

    def test_unknown_miss_changes_nothing(self):
        bank, policy = make_bank()
        state = policy._state(0, 0)
        start = state.target_private
        policy.observe_miss(0, 0, 0x999, BlockClass.PRIVATE)
        assert state.target_private == start

    def test_targets_bounded(self):
        bank, policy = make_bank()
        state = policy._state(0, 0)
        state.target_private = 3
        state.private_tags.extend(range(100, 108))
        for b in range(100, 108):
            policy.observe_miss(0, 0, b, BlockClass.PRIVATE)
        assert state.target_private <= 3  # ways - 1


class TestReplacementBias:
    def test_evicts_from_over_target_class(self):
        bank, policy = make_bank()
        state = policy._state(0, 0)
        state.target_private = 1
        for i in range(3):
            bank.allocate(0, entry(i, BlockClass.PRIVATE))
        bank.allocate(0, entry(10, BlockClass.SHARED, owner=-1))
        _, evicted = bank.allocate(0, entry(11, BlockClass.SHARED, owner=-1))
        assert evicted.cls is BlockClass.PRIVATE  # private over target

    def test_per_set_state_isolation(self):
        bank, policy = make_bank()
        a = policy._state(0, 0)
        b = policy._state(0, 1)
        a.target_private = 1
        assert b.target_private != 1 or a is not b
