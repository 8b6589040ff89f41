"""Directed tests of the tiled private architecture."""

from repro.cache.block import BlockClass
from repro.sim.request import Supplier

from tests.util import access, build


def evict_from_l1(system, core, block):
    """Push ``block`` out of the core's L1 by conflicting its set."""
    l1_sets = system.config.l1.num_sets
    amap = system.amap
    fillers, candidate = [], block + 1
    while len(fillers) < system.config.l1.assoc:
        if amap.l1_index(candidate, l1_sets) == amap.l1_index(block, l1_sets):
            fillers.append(candidate)
        candidate += 1
    for f in fillers:
        access(system, core, f)
    assert system.l1s[core].lookup(block) is None


class TestLocality:
    def test_l1_eviction_lands_in_own_partition(self):
        system = build("private")
        block = 0x5000
        access(system, 2, block)
        evict_from_l1(system, 2, block)
        bank = system.amap.private_bank(block, 2)
        assert bank in system.amap.private_banks(2)
        entry = system.architecture.banks[bank].peek(
            system.amap.private_index(block), block)
        assert entry is not None
        assert entry.cls is BlockClass.PRIVATE and entry.owner == 2

    def test_local_l2_hit(self):
        system = build("private")
        block = 0x5000
        access(system, 2, block)
        evict_from_l1(system, 2, block)
        out = access(system, 2, block)
        assert out.supplier is Supplier.L2_LOCAL


class TestReplication:
    def test_remote_l2_read_leaves_source_copy(self):
        system = build("private")
        block = 0x600
        access(system, 0, block)
        evict_from_l1(system, 0, block)
        out = access(system, 7, block)
        assert out.supplier is Supplier.L2_REMOTE
        # Source copy survives with the remaining tokens (replication).
        src_bank = system.amap.private_bank(block, 0)
        assert system.architecture.banks[src_bank].peek(
            system.amap.private_index(block), block) is not None

    def test_both_cores_build_local_copies(self):
        system = build("private")
        block = 0x600
        access(system, 0, block)
        evict_from_l1(system, 0, block)
        access(system, 7, block)
        evict_from_l1(system, 7, block)
        holdings = system.ledger.l2_holdings(block)
        banks = {h.bank_id for h in holdings}
        assert system.amap.private_bank(block, 0) in banks
        assert system.amap.private_bank(block, 7) in banks

    def test_write_destroys_all_replicas(self):
        system = build("private")
        block = 0x600
        access(system, 0, block)
        evict_from_l1(system, 0, block)
        access(system, 7, block)
        access(system, 7, block, write=True)
        assert system.ledger.l2_holdings(block) == []
        assert system.ledger.l1_holders(block) == [7]


class TestCapacityIsolation:
    def test_partition_overflow_goes_offchip(self):
        """A thread cannot use more than its own four banks."""
        system = build("private")
        amap = system.amap
        assoc = system.config.l2.assoc
        # Blocks all landing in one private set of core 0.
        blocks = []
        tag = 1
        while len(blocks) < assoc + 2:
            candidate = (tag << 10)  # index 0, local bank 0 (tiny config)
            if amap.private_bank(candidate, 0) == amap.private_banks(0)[0] \
                    and amap.private_index(candidate) == 0:
                blocks.append(candidate)
            tag += 1
        for b in blocks:
            access(system, 0, b)
            evict_from_l1(system, 0, b)
        resident = sum(
            1 for b in blocks
            if system.architecture.banks[amap.private_bank(b, 0)].peek(
                amap.private_index(b), b) is not None)
        assert resident <= assoc
        assert system.result.offchip_writebacks >= 0  # tokens returned cleanly
