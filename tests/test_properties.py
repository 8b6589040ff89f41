"""System-level property tests: arbitrary access interleavings must
preserve token conservation, directory consistency, and single-writer
semantics under every architecture."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.block import BlockClass, L2Line
from repro.cache.bank import CacheBank
from repro.cache.replacement import ProtectedLru

from tests.util import build, tiny_config

ARCHS = ["shared", "private", "sp-nuca", "esp-nuca", "esp-nuca-flat",
         "d-nuca", "asr", "cc70"]

ACCESSES = st.lists(
    st.tuples(st.integers(0, 7),           # core
              st.integers(0, 40),          # block (small pool -> sharing)
              st.booleans()),              # write?
    min_size=1, max_size=120)


@pytest.mark.parametrize("arch", ARCHS)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(accesses=ACCESSES)
def test_invariants_under_random_streams(arch, accesses):
    system = build(arch, check_tokens=True)
    t = 0
    for core, small, write in accesses:
        block = 0x8000 + small * 0x101  # spread across banks/sets
        system.access(core, block, write, t)
        t += 3
    system.check_invariants()
    # Single-writer: any dirty L1 line holds every token of its block.
    for core, l1 in enumerate(system.l1s):
        for block in l1.resident_blocks():
            line = l1.lookup(block, touch=False)
            if line.dirty and line.tokens < system.ledger.total_tokens:
                holders = system.ledger.l1_holders(block)
                # A dirty line with partial tokens is legal only if no
                # other core also has a *writable* copy.
                writable = [h for h in holders
                            if system.l1s[h].lookup(block, touch=False).tokens
                            == system.ledger.total_tokens]
                assert not writable


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 200)),
                    min_size=1, max_size=80),
       nmax=st.integers(0, 4))
def test_protected_lru_never_exceeds_budget(ops, nmax):
    """Random interleavings of first-class and helping insertions keep
    every set's helping count within the budget."""
    bank = CacheBank(0, num_sets=2, ways=4, policy=ProtectedLru())
    bank.nmax = nmax
    for is_helping, addr in ops:
        cls = BlockClass.REPLICA if is_helping else BlockClass.PRIVATE
        entry = L2Line(block=addr, cls=cls, owner=0, tokens=1)
        index = addr % 2
        if bank.peek(index, addr) is not None:
            continue
        bank.allocate(index, entry)
        for helping in bank.helping:
            assert helping <= nmax


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 20))
def test_random_seeded_runs_conserve_tokens(seed):
    """Short seeded workload runs keep conservation under ESP-NUCA."""
    from repro.sim.engine import SimulationEngine
    from repro.workloads.base import TraceGenerator, WorkloadSpec

    config = tiny_config()
    system = build("esp-nuca", config)
    spec = WorkloadSpec(name="prop", family="synthetic",
                        active_cores=(0, 3, 7), refs_per_core=120,
                        private_footprint_blocks=64,
                        shared_footprint_blocks=32, shared_fraction=0.4,
                        write_fraction=0.3, os_noise=0.05)
    engine = SimulationEngine(system,
                              TraceGenerator(spec, seed).traces(8))
    engine.run()
    system.check_invariants()
