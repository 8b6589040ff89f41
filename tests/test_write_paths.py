"""Write-path corner cases across architectures: upgrades, write
misses on every supplier kind, dirty propagation."""

from repro.cache.block import BlockClass
from repro.sim.request import Supplier

from tests.util import (access, build, private_overflow_blocks,
                        remote_helping_block)

from tests.test_arch_private import evict_from_l1


class TestUpgrades:
    def test_upgrade_after_shared_read(self):
        """Reader holds one token; a write must collect the rest."""
        system = build("shared")
        access(system, 0, 0x51)          # owner: all tokens
        access(system, 4, 0x51)          # reader: one token
        line4 = system.l1s[4].lookup(0x51, touch=False)
        assert line4.tokens < system.ledger.total_tokens
        out = access(system, 4, 0x51, write=True)
        assert out.supplier is Supplier.L1_LOCAL
        assert line4.tokens == system.ledger.total_tokens
        assert system.l1s[0].lookup(0x51) is None

    def test_silent_upgrade_with_all_tokens(self):
        system = build("shared")
        access(system, 0, 0x52)
        t0 = 1000
        out = access(system, 0, 0x52, write=True, t=t0)
        assert out.complete - t0 == system.config.l1.access_latency

    def test_esp_upgrade_invalidates_replica(self):
        system = build("esp-nuca")
        core = 6
        block = remote_helping_block(system, core)
        access(system, core, block)
        access(system, 3, block)          # demote to shared
        access(system, core, block)       # reuse bit
        evict_from_l1(system, core, block)  # replica + sb entry
        assert any(h.cls is BlockClass.REPLICA
                   for h in system.ledger.l2_holdings(block))
        # The *other* core writes: replica must die.
        access(system, 3, block, write=True)
        assert all(h.cls is not BlockClass.REPLICA
                   for h in system.ledger.l2_holdings(block))
        assert system.l1s[3].lookup(block).tokens == \
            system.ledger.total_tokens


class TestWriteMisses:
    def test_write_miss_on_l2_shared_entry(self):
        system = build("shared")
        block = 0x61
        access(system, 0, block)
        evict_from_l1(system, 0, block)
        out = access(system, 5, block, write=True)
        assert system.l1s[5].lookup(block).tokens == \
            system.ledger.total_tokens
        assert system.ledger.l2_holdings(block) == []

    def test_sp_write_miss_via_remote_private_bank(self):
        """A write that finds the data in a remote private bank (the 3'
        path) must collect everything and demote."""
        system = build("sp-nuca")
        block = 0x777
        access(system, 3, block)
        evict_from_l1(system, 3, block)
        out = access(system, 6, block, write=True)
        assert out.supplier is Supplier.L2_REMOTE
        assert system.l1s[6].lookup(block).tokens == \
            system.ledger.total_tokens
        from repro.core.private_bit import Classification
        assert system.architecture.classifier.classify(block) \
            is Classification.SHARED

    def test_write_miss_offchip_arrives_exclusive_and_dirty(self):
        system = build("private")
        out = access(system, 2, 0x62, write=True)
        assert out.supplier is Supplier.OFFCHIP
        line = system.l1s[2].lookup(0x62, touch=False)
        assert line.dirty and line.tokens == system.ledger.total_tokens


class TestDirtyPropagation:
    def test_dirty_travels_through_l2_back_to_reader(self):
        """Writer -> L2 -> other core: the dirty responsibility must
        never be lost (memory would silently hold stale data)."""
        system = build("shared")
        block = 0x63
        access(system, 0, block, write=True)
        evict_from_l1(system, 0, block)     # dirty entry in L2
        holding = system.ledger.l2_holdings(block)[0]
        assert holding.dirty
        access(system, 4, block)            # sole copy moves to L1(4)
        line = system.l1s[4].lookup(block, touch=False)
        assert line is not None and line.dirty

    def test_dirty_victim_roundtrip_in_esp(self):
        system = build("esp-nuca")
        assoc = system.config.l2.assoc
        blocks = private_overflow_blocks(system, 0, assoc + 3)
        for b in blocks:
            access(system, 0, b, write=True)
            evict_from_l1(system, 0, b)
        victims = [h for b in blocks for h in system.ledger.l2_holdings(b)
                   if h.cls is BlockClass.VICTIM]
        assert victims and all(v.dirty for v in victims)
