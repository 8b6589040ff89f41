"""Directed tests of Adaptive Selective Replication."""

from repro.architectures.asr import LEVELS, AdaptiveSelectiveReplication
from repro.sim.system import CmpSystem

from tests.util import access, build, tiny_config

from tests.test_arch_private import evict_from_l1


def build_asr(initial_level):
    config = tiny_config()
    arch = AdaptiveSelectiveReplication(config, initial_level=initial_level)
    return CmpSystem(config, arch, check_tokens=True), arch


def make_shared(system, block, first, second):
    access(system, first, block)
    access(system, second, block)


class TestSelectiveReplication:
    def test_level_zero_never_replicates(self):
        system, arch = build_asr(initial_level=0)
        block = 0x3100
        make_shared(system, block, 0, 6)
        evict_from_l1(system, 6, block)
        own_bank = system.amap.private_bank(block, 6)
        assert arch.banks[own_bank].peek(
            system.amap.private_index(block), block) is None

    def test_level_one_always_replicates(self):
        system, arch = build_asr(initial_level=len(LEVELS) - 1)
        block = 0x3100
        make_shared(system, block, 0, 6)
        evict_from_l1(system, 6, block)
        own_bank = system.amap.private_bank(block, 6)
        entry = arch.banks[own_bank].peek(
            system.amap.private_index(block), block)
        assert entry is not None and entry.replica

    def test_sole_copy_always_kept_locally(self):
        system, arch = build_asr(initial_level=0)
        block = 0x3200
        access(system, 4, block)
        evict_from_l1(system, 4, block)
        own_bank = system.amap.private_bank(block, 4)
        assert arch.banks[own_bank].peek(
            system.amap.private_index(block), block) is not None

    def test_unreplicated_tokens_merge_into_home_copy(self):
        system, arch = build_asr(initial_level=0)
        block = 0x3300
        access(system, 0, block)
        evict_from_l1(system, 0, block)  # home copy at cluster 0
        access(system, 6, block)
        evict_from_l1(system, 6, block)  # no replica: tokens merge home
        holdings = system.ledger.l2_holdings(block)
        assert len(holdings) == 1
        assert holdings[0].bank_id in system.amap.private_banks(0)


class TestAdaptation:
    def test_costly_replication_steps_down(self):
        system, arch = build_asr(initial_level=2)
        arch._capacity_recaptures[3] = 100
        arch._replica_hits[3] = 0
        arch._adapt(3)
        assert arch.level_index[3] == 1
        assert arch.level_changes == 1

    def test_beneficial_remote_traffic_steps_up(self):
        system, arch = build_asr(initial_level=2)
        arch._remote_shared_hits[3] = 100
        arch._adapt(3)
        assert arch.level_index[3] == 3

    def test_levels_bounded(self):
        system, arch = build_asr(initial_level=0)
        arch._capacity_recaptures[0] = 100
        arch._adapt(0)
        assert arch.level_index[0] == 0
        system, arch = build_asr(initial_level=len(LEVELS) - 1)
        arch._remote_shared_hits[0] = 100
        arch._adapt(0)
        assert arch.level_index[0] == len(LEVELS) - 1

    def test_epoch_counters_reset_after_adapt(self):
        system, arch = build_asr(initial_level=2)
        arch._replica_hits[1] = 5
        arch._remote_shared_hits[1] = 5
        arch._adapt(1)
        assert arch._replica_hits[1] == 0
        assert arch._remote_shared_hits[1] == 0

    def test_victim_tags_recapture_counts_cost(self):
        system, arch = build_asr(initial_level=2)
        # Simulate an eviction of core 2's first-class block, then a
        # miss on it again.
        from repro.cache.block import BlockClass, L2Line
        entry = L2Line(block=0x440, cls=BlockClass.PRIVATE, owner=2,
                           tokens=0)
        arch.on_l2_eviction(8, 0, entry, tokens=0, cascade=False)
        before = arch._capacity_recaptures[2]
        access(system, 2, 0x440)
        assert arch._capacity_recaptures[2] == before + 1
