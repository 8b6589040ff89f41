"""CmpSystem-level behaviour: fills, eviction routing, stats reset,
invariant cross-checks, writeback accounting."""

import pytest

from repro.sim.request import Supplier

from tests.util import access, build

from tests.test_arch_private import evict_from_l1


class TestL1Fill:
    def test_fill_requires_tokens(self):
        system = build("shared")
        with pytest.raises(ValueError):
            system.l1_fill(0, 0x10, tokens=0, dirty=False)

    def test_fill_registers_with_ledger(self):
        system = build("shared")
        tokens = system.ledger.take_from_memory(0x10)
        system.l1_fill(0, 0x10, tokens, dirty=False)
        assert system.ledger.l1_holders(0x10) == [0]
        system.check_invariants()

    def test_fill_merge_accumulates(self):
        system = build("shared")
        t1 = system.ledger.take_from_memory(0x10, 4)
        system.l1_fill(0, 0x10, t1, dirty=False)
        t2 = system.ledger.take_from_memory(0x10, 4)
        system.l1_fill(0, 0x10, t2, dirty=True)
        line = system.l1s[0].lookup(0x10)
        assert line.tokens == 8 and line.dirty
        system.check_invariants()


class TestWritebackAccounting:
    def test_dirty_offchip_eviction_counts_writeback(self):
        system = build("shared")
        amap = system.amap
        assoc = system.config.l2.assoc
        # Overflow one shared set with dirty blocks: same bank + index.
        blocks, tag = [], 1
        while len(blocks) < assoc + 2:
            candidate = (tag << 8) | 0b00010  # bank 2, index 0
            assert amap.shared_bank(candidate) == 2
            assert amap.shared_index(candidate) == 0
            blocks.append(candidate)
            tag += 1
        for b in blocks:
            access(system, 0, b, write=True)
            evict_from_l1(system, 0, b)
        assert system.result.offchip_writebacks >= 2  # overflow was dirty
        system.check_invariants()

    def test_offchip_writeback_reserved_at_eviction_time(self):
        # Regression: the dirty branch used to call post_writeback(0)
        # regardless of the sim clock, piling every writeback onto the
        # controller's t=0 frontier.
        system = build("shared")
        access(system, 0, 0x999, write=True)
        system.l1s[0].invalidate(0x999)
        tokens = system.ledger.take_from_l1(0x999, 0)
        system.send_to_memory(0x999, tokens, dirty=True, router=0, t=50_000)
        assert system.result.offchip_writebacks == 1
        mc, _ = system.topology.controller_hops(0)
        controller = system.memory.controller(mc)
        assert controller._busy_until >= 50_000

    def test_clean_tokens_return_silently(self):
        system = build("shared")
        access(system, 0, 0x999)
        line = system.l1s[0].invalidate(0x999)
        tokens = system.ledger.take_from_l1(0x999, 0)
        before = system.result.offchip_writebacks
        system.send_to_memory(0x999, tokens, dirty=False, router=0)
        assert system.result.offchip_writebacks == before


class TestSendToMemoryRouting:
    def test_tokens_prefer_onchip_l1_holder(self):
        system = build("shared")
        access(system, 0, 0x500)
        access(system, 3, 0x500)  # both L1s hold copies now
        line3 = system.l1s[3].invalidate(0x500)
        tokens = system.ledger.take_from_l1(0x500, 3)
        system.send_to_memory(0x500, tokens, dirty=False, router=3)
        # Tokens merged into core 0's line, not parked in memory.
        assert system.ledger.state(0x500).memory_tokens == 0
        system.check_invariants()

    def test_last_copy_resets_classifier(self):
        system = build("sp-nuca")
        access(system, 0, 0x501)
        line = system.l1s[0].invalidate(0x501)
        tokens = system.ledger.take_from_l1(0x501, 0)
        system.send_to_memory(0x501, tokens, dirty=False, router=0)
        from repro.core.private_bit import Classification
        assert system.architecture.classifier.classify(0x501) \
            is Classification.ABSENT


class TestStatsReset:
    def test_reset_clears_counters_keeps_state(self):
        system = build("shared")
        access(system, 0, 0x600)
        occupancy = system.l1s[0].occupancy()
        system.reset_stats()
        result = system.result
        assert result.memory_accesses == 0
        assert result.noc_messages == 0
        assert result.offchip_demand == 0
        assert system.l1s[0].occupancy() == occupancy  # state survives
        out = access(system, 0, 0x600)
        assert out.supplier is Supplier.L1_LOCAL


class TestIntrospection:
    def test_l2_occupancy_counts_blocks(self):
        system = build("private")
        assert system.l2_occupancy() == 0
        access(system, 0, 0x700)
        evict_from_l1(system, 0, 0x700)
        assert system.l2_occupancy() >= 1
