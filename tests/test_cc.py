"""Directed tests of Cooperative Caching: spilling, 1-chance
forwarding, replication-aware replacement, CCE indirection."""

from repro.architectures.cc import CooperativeCaching
from repro.cache.block import BlockClass
from repro.sim.request import Supplier
from repro.sim.system import CmpSystem

from tests.util import access, build, tiny_config

from tests.test_arch_private import evict_from_l1


def build_cc(cooperation):
    config = tiny_config()
    arch = CooperativeCaching(config, cooperation=cooperation)
    return CmpSystem(config, arch, check_tokens=True), arch


def overflow_partition(system, core, count, start_tag=1):
    """Fill one private set of ``core`` past associativity."""
    amap = system.amap
    blocks, tag = [], start_tag
    while len(blocks) < count:
        candidate = (tag << 5) | 0b00100
        if (amap.private_index(candidate) == 1
                and amap.private_bank(candidate, core)
                == amap.private_banks(core)[0]):
            blocks.append(candidate)
        tag += 1
    for b in blocks:
        access(system, core, b)
        evict_from_l1(system, core, b)
    return blocks


class TestSpilling:
    def test_no_spill_at_probability_zero(self):
        system, arch = build_cc(0.0)
        overflow_partition(system, 0, system.config.l2.assoc + 3)
        assert arch.spills == 0

    def test_spill_at_probability_one(self):
        system, arch = build_cc(1.0)
        blocks = overflow_partition(system, 0, system.config.l2.assoc + 3)
        assert arch.spills >= 1
        spilled = [h for b in blocks for h in system.ledger.l2_holdings(b)
                   if h.spilled]
        assert spilled
        for holding in spilled:
            host = system.amap.owner_of_bank(holding.bank_id)
            assert host != 0
            assert holding.cls is BlockClass.VICTIM
            assert holding.owner == 0

    def test_owner_finds_spilled_block_remotely(self):
        system, arch = build_cc(1.0)
        blocks = overflow_partition(system, 0, system.config.l2.assoc + 3)
        spilled_blocks = [b for b in blocks
                          for h in system.ledger.l2_holdings(b)
                          if h.spilled]
        out = access(system, 0, spilled_blocks[0])
        assert out.supplier is Supplier.L2_REMOTE
        assert arch.spill_hits >= 1

    def test_one_chance_forwarding(self):
        """A spilled block is never re-spilled (N = 1)."""
        system, arch = build_cc(1.0)
        from repro.cache.block import L2Line
        entry = L2Line(block=0x4420, cls=BlockClass.VICTIM, owner=0,
                           tokens=4)
        entry.spilled = True
        system.ledger.take_from_memory(0x4420, 4)
        spills_before = arch.spills
        arch.on_l2_eviction(8, 0, entry, tokens=4, cascade=False)
        assert arch.spills == spills_before
        # Tokens returned to memory (block fully off chip).
        assert not system.ledger.on_chip(0x4420)

    def test_invalid_probability_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            CooperativeCaching(tiny_config(), cooperation=1.5)


class TestNaming:
    def test_variant_names(self):
        assert CooperativeCaching(tiny_config(), 0.0).name == "cc00"
        assert CooperativeCaching(tiny_config(), 0.3).name == "cc30"
        assert CooperativeCaching(tiny_config(), 1.0).name == "cc100"


class TestReplicationAwareReplacement:
    def test_replicated_block_evicted_before_singlets(self):
        system, arch = build_cc(0.0)
        amap = system.amap
        # One replicated block (copy also in core 1's partition via the
        # sharing path) plus singlets filling the set.
        shared_block = None
        tag = 1
        while shared_block is None:
            candidate = (tag << 5) | 0b00100
            if (amap.private_index(candidate) == 1
                    and amap.private_bank(candidate, 0)
                    == amap.private_banks(0)[0]):
                shared_block = candidate
            tag += 1
        access(system, 0, shared_block)
        evict_from_l1(system, 0, shared_block)
        access(system, 1, shared_block)       # cache-to-cache read
        evict_from_l1(system, 1, shared_block)  # replicated in tile 1
        # Now fill core 0's same set with singlets; replicated block
        # must be the preferred victim even when recently used.
        access(system, 0, shared_block)  # make it MRU again
        evict_from_l1(system, 0, shared_block)
        blocks = overflow_partition(system, 0, system.config.l2.assoc,
                                    start_tag=100)
        bank0 = amap.private_banks(0)[0]
        assert arch.banks[bank0].peek(1, shared_block) is None


class TestCceIndirection:
    def test_remote_supply_pays_directory_penalty(self):
        system, arch = build_cc(0.0)
        block = 0x5100
        access(system, 0, block)
        evict_from_l1(system, 0, block)
        plain = build("private")
        access(plain, 0, block)
        evict_from_l1(plain, 0, block)
        t_cc = access(system, 7, block).complete
        t_plain = access(plain, 7, block).complete
        assert t_cc >= t_plain + 2 * system.config.noc.hop_latency
