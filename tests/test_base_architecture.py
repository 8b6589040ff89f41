"""Shared architecture machinery: timing helpers and token plumbing."""

import pytest

from repro.cache.block import BlockClass, L2Line
from repro.sim.request import Supplier

from tests.util import access, build


class TestBankService:
    def test_sequential_hit_and_miss_latency(self):
        system = build("shared")
        arch = system.architecture
        cfg = system.config.l2
        t_hit = arch.bank_service(5, 100, hit=True)
        assert t_hit == 100 + cfg.tag_latency + cfg.access_latency
        fresh = build("shared").architecture
        t_miss = fresh.bank_service(5, 100, hit=False)
        assert t_miss == 100 + cfg.tag_latency

    def test_busy_bank_serializes(self):
        arch = build("shared").architecture
        first = arch.bank_service(0, 0, hit=True)
        second = arch.bank_service(0, 0, hit=True)
        assert second > first

    def test_skewed_reservation_bounded(self):
        arch = build("shared").architecture
        arch.bank_service(0, 10_000, hit=True)
        early = arch.bank_service(0, 0, hit=True)
        assert early <= 0 + 5 * 7  # capped wait + own service


class TestOffchipFetch:
    def test_latency_includes_hops_and_dram(self):
        system = build("shared")
        arch = system.architecture
        mem = system.config.mem
        hop = system.config.noc.hop_latency
        t = arch.fetch_offchip(0, 0, 0)
        # router 0: 1 hop to controller 0 each way.
        assert t == hop + mem.latency + hop

    def test_farther_router_pays_more(self):
        arch = build("shared").architecture
        near = arch.fetch_offchip(0, 0, 0)
        far = arch.fetch_offchip(1, 0, 1)
        assert far > near


class TestCollectForWrite:
    def test_collects_from_all_holders(self):
        system = build("shared")
        arch = system.architecture
        block = 0x3333
        access(system, 0, block)
        access(system, 4, block)
        access(system, 7, block)
        t, tokens, dirty = arch.collect_for_write(7, block, 7, 100)
        assert tokens == system.ledger.total_tokens - \
            system.l1s[7].lookup(block).tokens
        assert t > 100
        assert system.l1s[0].lookup(block) is None
        assert system.l1s[4].lookup(block) is None
        system.ledger.state(block).l1[7].tokens += tokens  # restore
        system.check_invariants()

    def test_nothing_to_collect_is_free(self):
        system = build("shared")
        arch = system.architecture
        block = 0x3334
        access(system, 0, block)
        t, tokens, dirty = arch.collect_for_write(0, block, 0, 50)
        assert (t, tokens, dirty) == (50, 0, False)


class TestMergeOrAllocate:
    def test_merges_into_existing_entry(self):
        system = build("shared")
        arch = system.architecture
        block = 0x40
        tokens = system.ledger.take_from_memory(block, 4)
        entry = L2Line(block=block, cls=BlockClass.SHARED, tokens=2)
        bank = system.amap.shared_bank(block)
        index = system.amap.shared_index(block)
        assert arch.banks[bank].allocate(index, entry)[0]
        assert arch.merge_or_allocate(bank, index, block, BlockClass.SHARED,
                                      -1, 2, dirty=True)
        assert entry.tokens == 4 and entry.dirty

    def test_refusal_releases_tokens(self):
        system = build("esp-nuca")
        arch = system.architecture
        for bank in arch.banks:
            bank.nmax = 0
            bank.monitor = None
        block = 0x41
        tokens = system.ledger.take_from_memory(block)
        ok = arch.merge_or_allocate(0, 1, block, BlockClass.REPLICA, 0,
                                    tokens, dirty=False)
        assert not ok
        # Tokens are back in memory (no other holder existed).
        assert not system.ledger.on_chip(block)


class TestSupplierGeometry:
    def test_is_local_bank(self):
        arch = build("shared").architecture
        assert arch.is_local_bank(0, 0)
        assert arch.is_local_bank(0, 3)
        assert not arch.is_local_bank(0, 4)

    def test_supply_from_l1_charges_three_legs(self):
        system = build("shared")
        arch = system.architecture
        hop = system.config.noc.hop_latency
        l1 = system.config.l1.access_latency
        t = arch.supply_from_l1(requester=0, holder=7, via_router=3, t=0)
        # via 3 -> holder 7 (1 hop), L1, 7 -> requester 0 (4 hops)
        assert t == 1 * hop + l1 + 4 * hop
