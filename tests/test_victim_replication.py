"""Victim Replication baseline: local replicas on a shared substrate."""

from repro.cache.block import BlockClass
from repro.sim.request import Supplier

from tests.util import access, build

from tests.test_arch_private import evict_from_l1


def pick_remote_home_block(system, core, start=0x700):
    block = start
    while system.architecture.is_local_bank(
            core, system.amap.shared_bank(block)):
        block += 1
    return block


class TestReplication:
    def test_writeback_with_remote_home_creates_replica(self):
        system = build("victim-replication")
        arch = system.architecture
        core = 5
        block = pick_remote_home_block(system, core)
        access(system, 0, block)          # another copy stays on chip
        access(system, core, block)
        evict_from_l1(system, core, block)
        bank_id, index = arch._local_bank(block, core)
        entry = arch.banks[bank_id].peek(index, block,
                                         classes=(BlockClass.REPLICA,))
        assert entry is not None and entry.owner == core
        assert arch.replicas_created >= 1

    def test_replica_hit_is_local(self):
        system = build("victim-replication")
        arch = system.architecture
        core = 5
        block = pick_remote_home_block(system, core)
        access(system, 0, block)
        access(system, core, block)
        evict_from_l1(system, core, block)
        out = access(system, core, block)
        assert out.supplier is Supplier.L2_LOCAL
        assert arch.replica_hits >= 1

    def test_last_copy_goes_home_not_replica(self):
        """The home bank keeps the authoritative copy: a sole copy is
        never turned into a local replica."""
        system = build("victim-replication")
        arch = system.architecture
        core = 5
        block = pick_remote_home_block(system, core, start=0x720)
        access(system, core, block)       # sole copy
        evict_from_l1(system, core, block)
        home = system.amap.shared_bank(block)
        assert arch.banks[home].peek(
            system.amap.shared_index(block), block) is not None

    def test_local_home_needs_no_replica(self):
        system = build("victim-replication")
        arch = system.architecture
        core = 0
        block = 0x700
        while not arch.is_local_bank(core, system.amap.shared_bank(block)):
            block += 1
        access(system, core, block)
        evict_from_l1(system, core, block)
        assert arch.replicas_created == 0

    def test_write_collapses_replicas(self):
        system = build("victim-replication")
        core = 5
        block = pick_remote_home_block(system, core)
        access(system, 0, block)
        access(system, core, block)
        evict_from_l1(system, core, block)
        access(system, 2, block, write=True)
        assert all(h.cls is not BlockClass.REPLICA
                   for h in system.ledger.l2_holdings(block))

    def test_registry_exposes_vr_and_qos(self):
        from repro.architectures.registry import architecture_names
        names = architecture_names()
        assert "victim-replication" in names
        assert "esp-nuca-qos" in names
