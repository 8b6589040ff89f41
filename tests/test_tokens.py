"""Token ledger: movement primitives and conservation invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.block import BlockClass, L2Line
from repro.cache.l1 import L1Line
from repro.coherence.tokens import TokenConservationError, TokenLedger


def ledger():
    return TokenLedger(num_cores=8, checking=True)


class TestMemoryPool:
    def test_new_block_fully_in_memory(self):
        led = ledger()
        assert led.state(0x10).memory_tokens == 16

    def test_take_all_from_memory(self):
        led = ledger()
        assert led.take_from_memory(0x10) == 16
        assert led.state(0x10).memory_tokens == 0

    def test_take_partial(self):
        led = ledger()
        assert led.take_from_memory(0x10, 3) == 3
        assert led.state(0x10).memory_tokens == 13

    def test_forgotten_when_fully_off_chip(self):
        led = ledger()
        tokens = led.take_from_memory(0x10)
        led.give_to_memory(0x10, tokens)
        assert 0x10 not in list(led.known_blocks())


class TestL1Holdings:
    def test_register_and_take(self):
        led = ledger()
        tokens = led.take_from_memory(0x10)
        line = L1Line(0x10, tokens, dirty=False)
        led.register_l1(0x10, 2, line)
        assert led.l1_holders(0x10) == [2]
        taken = led.take_from_l1(0x10, 2, 1)
        assert taken == 1 and line.tokens == 15

    def test_holder_dropped_at_zero(self):
        led = ledger()
        line = L1Line(0x10, led.take_from_memory(0x10), dirty=False)
        led.register_l1(0x10, 0, line)
        led.take_from_l1(0x10, 0)
        assert led.l1_holders(0x10) == []

    def test_zero_token_registration_rejected(self):
        led = ledger()
        with pytest.raises(TokenConservationError):
            led.register_l1(0x10, 0, L1Line(0x10, 0, False))


class TestL2Holdings:
    def test_register_take_and_drop(self):
        led = ledger()
        tokens = led.take_from_memory(0x20)
        entry = L2Line(block=0x20, cls=BlockClass.SHARED, tokens=tokens)
        # The line is its own holding record: it carries its location.
        entry.bank_id, entry.set_index = 3, 7
        led.register_l2(0x20, entry)
        holdings = led.l2_holdings(0x20)
        assert len(holdings) == 1 and holdings[0].bank_id == 3
        led.take_from_l2(0x20, entry, 1)
        assert entry.tokens == 15
        led.take_from_l2(0x20, entry)
        assert led.l2_holdings(0x20) == []

    def test_multiple_entries_same_block(self):
        # ESP-NUCA: a shared entry and a replica coexist.
        led = ledger()
        led.take_from_memory(0x20)
        shared = L2Line(block=0x20, cls=BlockClass.SHARED, tokens=10)
        replica = L2Line(block=0x20, cls=BlockClass.REPLICA, owner=1,
                         tokens=6)
        led.register_l2(0x20, shared)
        led.register_l2(0x20, replica)
        assert len(led.l2_holdings(0x20)) == 2
        led.check_block(0x20)


class TestConservation:
    def test_check_detects_leak(self):
        led = ledger()
        line = L1Line(0x10, led.take_from_memory(0x10), dirty=False)
        led.register_l1(0x10, 0, line)
        line.tokens -= 1  # illegal out-of-band mutation
        with pytest.raises(TokenConservationError):
            led.check_block(0x10)

    def test_steal_prefers_spare_tokens(self):
        led = ledger()
        led.take_from_memory(0x10)
        rich = L1Line(0x10, 15, False)
        poor = L1Line(0x10, 1, False)
        led.register_l1(0x10, 0, rich)
        led.register_l1(0x10, 1, poor)
        kind, where = led.steal_one_token(0x10)
        assert (kind, where) == ("l1", 0)

    def test_steal_none_when_all_single(self):
        led = ledger()
        led.take_from_memory(0x10, 16)
        led.register_l1(0x10, 0, L1Line(0x10, 1, False))
        led.give_to_memory(0x10, 15)
        assert led.steal_one_token(0x10) is None

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)),
                    min_size=1, max_size=60))
    def test_random_walk_conserves(self, moves):
        """Random legal token movements never break conservation."""
        led = ledger()
        block = 0x42
        lines = {}
        for core, amount in moves:
            state = led.state(block)
            if core in lines and core in state.l1:
                taken = led.take_from_l1(block, core,
                                         min(amount, lines[core].tokens) or None)
                led.give_to_memory(block, taken)
                if core not in led.state(block).l1:
                    lines.pop(core, None)
            elif led.state(block).memory_tokens > 0:
                take = min(amount + 1, led.state(block).memory_tokens)
                taken = led.take_from_memory(block, take)
                line = L1Line(block, taken, dirty=False)
                led.register_l1(block, core, line)
                lines[core] = line
            led.check_block(block)
