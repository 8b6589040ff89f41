"""Directed tests of ESP-NUCA (Section 3): replicas, victims,
protected LRU interplay, in-place demotion."""

import pytest

from repro.cache.block import BlockClass
from repro.core.private_bit import Classification
from repro.sim.request import Supplier

from tests.util import (access, build, private_overflow_blocks,
                        remote_helping_block)

from tests.test_arch_private import evict_from_l1


def freeze_budget(system, nmax):
    """Pin every bank's helping budget and stop the duel from moving
    it (duel state included, so the invariant checker stays happy)."""
    arch = system.architecture
    for bank in arch.banks:
        bank.nmax = nmax
        bank.monitor = None
        if arch.duel is not None:
            arch.duel.state_of(bank.bank_id).nmax = nmax


def make_shared(system, block, cores=(3, 6)):
    """Touch a block from two cores so it is classified shared."""
    access(system, cores[0], block)
    access(system, cores[1], block)


def pick_remote_shared_block(system, core, start=0x900):
    """A block whose shared-map bank is NOT at ``core``'s router and
    whose private- and shared-map sets are unmonitored (queried from
    the actual per-bank role placement), so protected LRU admits
    helping blocks there with the default budget."""
    return remote_helping_block(system, core, start)


class TestReplicas:
    def _build_replica(self, system, core=6):
        # The replicating core fetches first (so it holds the token
        # surplus and the replica is endowed with several tokens), a
        # second core demotes the block to shared.
        block = pick_remote_shared_block(system, core)
        make_shared(system, block, cores=(core, 3))
        access(system, core, block)        # set the reuse bit
        evict_from_l1(system, core, block)  # creates the replica
        return block

    def test_reused_shared_eviction_creates_replica(self):
        system = build("esp-nuca")
        block = self._build_replica(system)
        pbank = system.amap.private_bank(block, 6)
        entry = system.architecture.banks[pbank].peek(
            system.amap.private_index(block), block,
            classes=(BlockClass.REPLICA,))
        assert entry is not None and entry.owner == 6
        assert system.architecture.replicas_created >= 1

    def test_unreused_shared_eviction_skips_replica(self):
        system = build("esp-nuca")
        core = 6
        block = pick_remote_shared_block(system, core)
        make_shared(system, block, cores=(3, core))
        evict_from_l1(system, core, block)  # never re-touched: no reuse
        pbank = system.amap.private_bank(block, core)
        assert system.architecture.banks[pbank].peek(
            system.amap.private_index(block), block,
            classes=(BlockClass.REPLICA,)) is None

    def test_replica_hit_is_local(self):
        system = build("esp-nuca")
        block = self._build_replica(system)
        out = access(system, 6, block)
        assert out.supplier is Supplier.L2_LOCAL
        assert system.architecture.replica_hits >= 1

    def test_replica_survives_reads(self):
        system = build("esp-nuca")
        block = self._build_replica(system)
        access(system, 6, block)
        pbank = system.amap.private_bank(block, 6)
        assert system.architecture.banks[pbank].peek(
            system.amap.private_index(block), block,
            classes=(BlockClass.REPLICA,)) is not None

    def test_write_invalidates_replicas(self):
        system = build("esp-nuca")
        block = self._build_replica(system)
        access(system, 1, block, write=True)
        assert all(h.cls is not BlockClass.REPLICA
                   for h in system.ledger.l2_holdings(block))


class TestVictims:
    def _overflow_private(self, system, core=0):
        """Over-fill one private-map set of ``core``; returns blocks.

        Blocks are chosen with unmonitored private AND shared sets
        (queried from the per-bank role placement) so neither the
        eviction set nor the victim target is a reference set.
        """
        assoc = system.config.l2.assoc
        blocks = private_overflow_blocks(system, core, assoc + 3)
        for b in blocks:
            access(system, core, b)
            evict_from_l1(system, core, b)
        return blocks

    def test_private_overflow_creates_victims(self):
        system = build("esp-nuca")
        self._overflow_private(system)
        assert system.architecture.victims_created >= 1

    def test_victim_sits_at_shared_map_location(self):
        system = build("esp-nuca")
        blocks = self._overflow_private(system)
        arch = system.architecture
        victims = [
            (b, h) for b in blocks for h in system.ledger.l2_holdings(b)
            if h.cls is BlockClass.VICTIM
        ]
        assert victims
        for block, holding in victims:
            assert holding.bank_id == system.amap.shared_bank(block)
            assert holding.owner == 0

    def test_owner_reclaims_victim(self):
        system = build("esp-nuca")
        blocks = self._overflow_private(system)
        victims = [b for b in blocks
                   for h in system.ledger.l2_holdings(b)
                   if h.cls is BlockClass.VICTIM]
        block = victims[0]
        out = access(system, 0, block)
        assert out.supplier in (Supplier.L2_SHARED, Supplier.L2_LOCAL)
        assert system.architecture.victim_hits >= 1
        # Swap-back semantics: the victim entry is consumed.
        assert all(h.cls is not BlockClass.VICTIM
                   for h in system.ledger.l2_holdings(block))

    def test_owner_reclaims_victim_on_write(self):
        system = build("esp-nuca")
        blocks = self._overflow_private(system)
        victims = [b for b in blocks
                   for h in system.ledger.l2_holdings(b)
                   if h.cls is BlockClass.VICTIM]
        block = victims[0]
        out = access(system, 0, block, write=True)
        assert out.supplier in (Supplier.L2_SHARED, Supplier.L2_LOCAL)
        assert system.architecture.victim_hits >= 1
        assert all(h.cls is not BlockClass.VICTIM
                   for h in system.ledger.l2_holdings(block))
        # A write reclaim must leave the owner exclusive and dirty.
        line = system.l1s[0].lookup(block)
        assert line is not None and line.dirty
        assert line.tokens == system.ledger.total_tokens

    def test_second_core_demotes_victim_in_place(self):
        system = build("esp-nuca")
        blocks = self._overflow_private(system)
        arch = system.architecture
        victims = [b for b in blocks
                   for h in system.ledger.l2_holdings(b)
                   if h.cls is BlockClass.VICTIM]
        block = victims[0]
        access(system, 5, block)
        assert arch.classifier.classify(block) is Classification.SHARED
        # The entry (if still resident) must now be first-class SHARED.
        for holding in system.ledger.l2_holdings(block):
            assert holding.cls is BlockClass.SHARED


class TestReplicaTokenSplit:
    """The endowment split in route_l1_eviction: a reused shared
    eviction holding t >= 2 tokens grants the replica min(t - 1, 4)
    and sends the remainder (with the dirty responsibility) to the
    shared bank; on refusal everything falls back there."""

    def _reused_dirty_line(self, system, core=6):
        block = pick_remote_shared_block(system, core)
        make_shared(system, block, cores=(core, 3))
        access(system, core, block, write=True)  # gathers every token
        access(system, core, block)              # reuse bit
        line = system.l1s[core].lookup(block)
        assert line.dirty and line.tokens == system.ledger.total_tokens
        return block

    def test_grant_split_caps_replica_endowment(self):
        system = build("esp-nuca")
        total = system.ledger.total_tokens
        block = self._reused_dirty_line(system)
        evict_from_l1(system, 6, block)
        replica = system.architecture.banks[
            system.amap.private_bank(block, 6)].peek(
            system.amap.private_index(block), block,
            classes=(BlockClass.REPLICA,))
        assert replica is not None
        assert replica.tokens == min(total - 1, 4)
        assert not replica.dirty  # dirty rides with the shared entry
        shared = system.architecture.banks[
            system.amap.shared_bank(block)].peek(
            system.amap.shared_index(block), block,
            classes=(BlockClass.SHARED,))
        assert shared is not None and shared.dirty
        assert shared.tokens + replica.tokens == total

    def test_refused_split_falls_back_entirely_to_shared(self):
        system = build("esp-nuca")
        total = system.ledger.total_tokens
        block = self._reused_dirty_line(system)
        freeze_budget(system, 0)
        evict_from_l1(system, 6, block)
        assert system.architecture.banks[
            system.amap.private_bank(block, 6)].peek(
            system.amap.private_index(block), block,
            classes=(BlockClass.REPLICA,)) is None
        shared = system.architecture.banks[
            system.amap.shared_bank(block)].peek(
            system.amap.shared_index(block), block,
            classes=(BlockClass.SHARED,))
        assert shared is not None and shared.dirty
        assert shared.tokens == total  # no token stranded by the refusal

    def test_single_token_line_becomes_whole_replica(self):
        # The second reader of a shared block holds exactly one token;
        # on a reused eviction the whole writeback becomes the replica
        # (no split possible below two tokens).
        system = build("esp-nuca")
        core = 6
        block = pick_remote_shared_block(system, core)
        make_shared(system, block, cores=(3, core))  # core reads second
        line = system.l1s[core].lookup(block)
        assert line.tokens == 1
        access(system, core, block)  # reuse bit
        evict_from_l1(system, core, block)
        replica = system.architecture.banks[
            system.amap.private_bank(block, core)].peek(
            system.amap.private_index(block), block,
            classes=(BlockClass.REPLICA,))
        assert replica is not None and replica.tokens == 1


class TestProtection:
    def test_zero_budget_refuses_helping_blocks(self):
        system = build("esp-nuca")
        arch = system.architecture
        freeze_budget(system, 0)
        core = 6
        block = pick_remote_shared_block(system, core)
        make_shared(system, block, cores=(3, core))
        access(system, core, block)
        evict_from_l1(system, core, block)
        pbank = system.amap.private_bank(block, core)
        assert arch.banks[pbank].peek(
            system.amap.private_index(block), block,
            classes=(BlockClass.REPLICA,)) is None

    def test_flat_variant_has_no_duel(self):
        system = build("esp-nuca-flat")
        assert system.architecture.duel is None
        assert all(b.nmax is None for b in system.architecture.banks)

    def test_helping_never_exceeds_limit(self):
        system = build("esp-nuca")
        arch = system.architecture
        TestVictims()._overflow_private(system)
        for bank in arch.banks:
            for index, helping in enumerate(bank.helping):
                limit = bank.helping_limit(index)
                assert helping <= max(limit, 0) + 1

    def test_invalid_variant_rejected(self):
        from repro.core.esp_nuca import EspNuca
        with pytest.raises(ValueError):
            EspNuca(build("shared").config, variant="bogus")
