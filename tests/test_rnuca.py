"""R-NUCA-lite: page-grained classification on the SP-NUCA machinery."""

import pytest

from repro.architectures.rnuca import PageBitDirectory, RNucaLite
from repro.core.private_bit import Classification
from repro.sim.system import CmpSystem

from tests.util import access, tiny_config

from tests.test_arch_private import evict_from_l1


def build_rnuca(page_blocks=4):
    config = tiny_config()
    arch = RNucaLite(config, page_blocks=page_blocks)
    return CmpSystem(config, arch, check_tokens=True), arch


class TestPageDirectory:
    def test_page_size_validation(self):
        with pytest.raises(ValueError):
            PageBitDirectory(page_blocks=3)

    def test_blocks_of_a_page_share_classification(self):
        d = PageBitDirectory(page_blocks=4)
        d.on_arrival(0x100, core=2)
        assert d.classify(0x101) is Classification.PRIVATE
        assert d.owner(0x103) == 2
        assert d.classify(0x104) is Classification.ABSENT  # next page

    def test_second_block_arrival_keeps_page_owner(self):
        d = PageBitDirectory(page_blocks=4)
        d.on_arrival(0x100, core=2)
        d.on_arrival(0x101, core=2)  # same page: no error, same owner
        assert d.owner(0x100) == 2

    def test_one_shared_touch_demotes_the_whole_page(self):
        d = PageBitDirectory(page_blocks=4)
        d.on_arrival(0x100, core=2)
        assert d.note_access(0x102, core=5)
        assert d.classify(0x101) is Classification.SHARED

    def test_page_survives_until_last_block_leaves(self):
        d = PageBitDirectory(page_blocks=4)
        d.on_arrival(0x100, 2)
        d.on_arrival(0x101, 2)
        d.on_left_chip(0x100)
        assert d.classify(0x103) is Classification.PRIVATE
        d.on_left_chip(0x101)
        assert d.classify(0x103) is Classification.ABSENT


class TestArchitecture:
    def test_same_page_blocks_stay_private_for_owner(self):
        system, arch = build_rnuca()
        access(system, 3, 0x200)
        access(system, 3, 0x201)
        assert arch.classifier.classify(0x201) is Classification.PRIVATE

    def test_foreign_touch_demotes_sibling_blocks(self):
        """The coarse-grain cost: one shared block drags its page."""
        system, arch = build_rnuca()
        access(system, 3, 0x200)
        access(system, 3, 0x201)
        access(system, 6, 0x200)  # demotes the page
        assert arch.classifier.classify(0x201) is Classification.SHARED
        # Core 3's writeback of the *untouched-by-others* sibling now
        # goes to the shared bank.
        evict_from_l1(system, 3, 0x201)
        sb = system.amap.shared_bank(0x201)
        entry = arch.banks[sb].peek(system.amap.shared_index(0x201), 0x201)
        assert entry is not None

    def test_runs_clean_end_to_end(self):
        system, arch = build_rnuca()
        for i in range(150):
            access(system, i % 8, 0x300 + (i * 7) % 96,
                   write=(i % 6 == 0), t=i * 3)
        system.check_invariants()

    def test_no_helping_blocks(self):
        from repro.cache.block import BlockClass
        system, arch = build_rnuca()
        for i in range(100):
            access(system, i % 4, 0x400 + i, t=i * 2)
        for bank in arch.banks:
            for ways in bank.lines:
                assert all(not e.is_helping for e in ways if e is not None)
