"""Replacement policies: flat LRU, protected LRU (Section 3.2), static."""

from repro.cache.bank import CacheBank, SetRole
from repro.cache.block import BlockClass, L2Line
from repro.cache.replacement import FlatLru, ProtectedLru, StaticPartition


def entry(addr, cls=BlockClass.PRIVATE, owner=0, tokens=1):
    return L2Line(block=addr, cls=cls, owner=owner, tokens=tokens)


def filled_bank(policy, ways=4, nmax=None, roles=None):
    bank = CacheBank(0, num_sets=2, ways=ways, policy=policy)
    bank.nmax = nmax
    for index, role in (roles or {}).items():
        bank.assign_role(index, role)
    return bank


class TestFlatLru:
    def test_fills_free_ways_first(self):
        bank = filled_bank(FlatLru())
        for i in range(4):
            admitted, evicted = bank.allocate(0, entry(i))
            assert admitted and evicted is None

    def test_evicts_global_lru(self):
        bank = filled_bank(FlatLru())
        entries = [entry(i) for i in range(4)]
        for e in entries:
            bank.allocate(0, e)
        bank.touch(entries[0])  # 1 is now LRU
        _, evicted = bank.allocate(0, entry(99))
        assert evicted is entries[1]


class TestProtectedLru:
    def test_helping_refused_at_zero_budget(self):
        bank = filled_bank(ProtectedLru(), nmax=0)
        admitted, _ = bank.allocate(0, entry(1, BlockClass.REPLICA))
        assert not admitted
        assert bank.refusals == 1

    def test_helping_admitted_below_budget(self):
        bank = filled_bank(ProtectedLru(), nmax=2)
        admitted, _ = bank.allocate(0, entry(1, BlockClass.VICTIM, owner=3))
        assert admitted

    def test_helping_at_budget_evicts_helping_lru(self):
        bank = filled_bank(ProtectedLru(), nmax=2)
        helpers = [entry(i, BlockClass.REPLICA) for i in (1, 2)]
        for h in helpers:
            bank.allocate(0, h)
        bank.allocate(0, entry(3, BlockClass.PRIVATE))
        bank.allocate(0, entry(4, BlockClass.PRIVATE))
        bank.touch(helpers[0])
        _, evicted = bank.allocate(0, entry(5, BlockClass.VICTIM, owner=2))
        assert evicted is helpers[1]
        assert bank.helping[0] == 2

    def test_first_class_never_refused(self):
        bank = filled_bank(ProtectedLru(), nmax=0)
        for i in range(6):
            admitted, _ = bank.allocate(0, entry(i, BlockClass.PRIVATE))
            assert admitted

    def test_first_class_at_budget_evicts_helping_first(self):
        bank = filled_bank(ProtectedLru(), nmax=1)
        helper = entry(1, BlockClass.REPLICA)
        bank.allocate(0, helper)
        for i in (2, 3, 4):
            bank.allocate(0, entry(i, BlockClass.PRIVATE))
        bank.touch(helper)  # helper is MRU, yet still the victim
        _, evicted = bank.allocate(0, entry(9, BlockClass.PRIVATE))
        assert evicted is helper

    def test_below_budget_global_lru_may_evict_first_class(self):
        # n < nmax: Section 3.2 — the LRU block of the whole set goes,
        # which is how helping blocks win ways when there is slack.
        bank = filled_bank(ProtectedLru(), nmax=3)
        first = [entry(i, BlockClass.PRIVATE) for i in range(4)]
        for f in first:
            bank.allocate(0, f)
        for f in first[1:]:
            bank.touch(f)
        _, evicted = bank.allocate(0, entry(10, BlockClass.REPLICA))
        assert evicted is first[0]

    def test_reference_set_refuses_all_helping(self):
        bank = filled_bank(ProtectedLru(), nmax=4,
                           roles={0: SetRole.REFERENCE})
        admitted, _ = bank.allocate(0, entry(1, BlockClass.REPLICA))
        assert not admitted

    def test_explorer_set_allows_one_extra(self):
        bank = filled_bank(ProtectedLru(), nmax=1,
                           roles={0: SetRole.EXPLORER})
        assert bank.helping_limit(0) == 2
        assert bank.allocate(0, entry(1, BlockClass.REPLICA))[0]
        assert bank.allocate(0, entry(2, BlockClass.REPLICA))[0]
        # Third helping block displaces a helping one, not first-class.
        bank.allocate(0, entry(3, BlockClass.PRIVATE))
        bank.allocate(0, entry(4, BlockClass.PRIVATE))
        _, evicted = bank.allocate(0, entry(5, BlockClass.REPLICA))
        assert evicted is not None and evicted.is_helping

    def test_unbounded_when_nmax_none(self):
        bank = filled_bank(ProtectedLru(), nmax=None)
        for i in range(4):
            assert bank.allocate(0, entry(i, BlockClass.REPLICA))[0]

    def test_helping_at_budget_ignores_free_ways(self):
        # Section 3.2 bounds the ways helping blocks may occupy, not
        # how full the set is: at the budget, a helping incoming must
        # displace the LRU helping block even with free ways left.
        bank = filled_bank(ProtectedLru(), nmax=1)
        first = entry(1, BlockClass.REPLICA)
        bank.allocate(0, first)
        admitted, evicted = bank.allocate(0, entry(2, BlockClass.VICTIM,
                                                   owner=3))
        assert admitted and evicted is first
        assert bank.helping[0] == 1
        assert bank.free_way(0) is not None

    def test_over_budget_first_class_converges_with_free_ways(self):
        # Regression: a set left over budget by an nmax decrease used
        # to keep its excess helping blocks for as long as free ways
        # lasted — first-class installs must shed helping LRU first.
        bank = filled_bank(ProtectedLru(), nmax=3)
        helpers = [entry(i, BlockClass.REPLICA) for i in (1, 2, 3)]
        for h in helpers:
            bank.allocate(0, h)
        bank.nmax = 1  # duel lowers the budget; set now holds 3 > 1
        bank.touch(helpers[1])
        bank.touch(helpers[2])
        admitted, evicted = bank.allocate(0, entry(9, BlockClass.PRIVATE))
        assert admitted and evicted is helpers[0]
        assert bank.helping[0] == 2
        assert bank.free_way(0) is not None  # way not burned
        # At the budget (n == nmax) the shed rule no longer applies
        # below capacity: a first-class install takes the free way.
        bank.nmax = 2
        admitted, evicted = bank.allocate(0, entry(10, BlockClass.PRIVATE))
        assert admitted and evicted is None
        assert bank.helping[0] == 2

    def test_over_budget_helping_never_raises_count(self):
        bank = filled_bank(ProtectedLru(), nmax=3)
        for i in (1, 2, 3):
            bank.allocate(0, entry(i, BlockClass.REPLICA))
        bank.nmax = 1
        admitted, evicted = bank.allocate(0, entry(9, BlockClass.REPLICA))
        assert admitted and evicted is not None and evicted.is_helping
        assert bank.helping[0] == 3  # unchanged, not 4


class TestStaticPartition:
    def test_respects_private_quota(self):
        bank = filled_bank(StaticPartition(private_ways=3))
        privates = [entry(i, BlockClass.PRIVATE) for i in range(3)]
        for p in privates:
            bank.allocate(0, p)
        # Fourth private evicts the private LRU, not the free way...
        _, evicted = bank.allocate(0, entry(10, BlockClass.PRIVATE))
        assert evicted is privates[0]

    def test_shared_side_uses_remaining_ways(self):
        bank = filled_bank(StaticPartition(private_ways=3))
        assert bank.allocate(0, entry(1, BlockClass.SHARED))[0]
        s2 = entry(2, BlockClass.SHARED)
        _, evicted = bank.allocate(0, s2)
        assert evicted is None or evicted.cls is BlockClass.SHARED

    def test_over_quota_other_side_evicted_when_full(self):
        # Force the shared side over its quota of 1 by installing
        # directly (as reclassification would), then verify a private
        # insertion reclaims the over-quota shared way.
        bank = filled_bank(StaticPartition(private_ways=3))
        shared = [entry(i, BlockClass.SHARED) for i in range(2)]
        bank.install(0, 0, shared[0])
        bank.install(0, 1, shared[1])
        bank.allocate(0, entry(10, BlockClass.PRIVATE))
        bank.allocate(0, entry(11, BlockClass.PRIVATE))
        _, evicted = bank.allocate(0, entry(12, BlockClass.PRIVATE))
        assert evicted is not None and evicted.cls is BlockClass.SHARED

    def test_shared_side_never_exceeds_quota_via_allocation(self):
        bank = filled_bank(StaticPartition(private_ways=3))
        bank.allocate(0, entry(1, BlockClass.SHARED))
        _, evicted = bank.allocate(0, entry(2, BlockClass.SHARED))
        assert evicted is not None and evicted.cls is BlockClass.SHARED
