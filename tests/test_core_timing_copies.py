"""Differential pin for the vectorized engine's inlined core timing.

``VectorizedEngine._classify_and_scout`` and ``_commit_bounded`` each
carry a hand-inlined copy of the :class:`~repro.sim.cpu.CoreModel` step
(a function call per reference would cost more than the step itself).
These tests drive both copies over seeded random ``(gap, kind)``
sequences on an all-resident, all-token L1 — every reference is local,
so its completion is ``clock + L1 latency`` — and compare them with a
``CoreModel`` stepped the same way. A small window and MLP budget make
both the window stall and the outstanding-slot stall fire.

The serve burst in ``VectorizedEngine._run_phase_fast`` carries a third
copy of the step plus an inline port of ``CmpSystem._serve_access``.
The last test runs one core over a block pool three times the L1's
capacity — misses, upgrades and hit stretches shorter than the burst's
16-hit hand-off — and compares the reference engine at every phase cap.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.common.config import CoreConfig
from repro.sim.cpu import CoreModel, TraceColumns, TraceKind
from repro.sim.engine import SimulationEngine
from repro.sim.vector.engine import VectorizedEngine
from repro.sim.vector.mirror import MirrorJournal

from tests.util import build, tiny_config

SEEDS = (1, 2, 3)
#: Long enough that the classifier's bulk (numpy) region is entered.
REFS = 400
BLOCKS = [0x40 + i for i in range(8)]


class CountingCore(CoreModel):
    """A CoreModel that notes which stall rules fired."""

    slot_stalls = 0
    window_stalls = 0

    def _wait_for_slot(self) -> None:
        if len(self._outstanding) >= self.config.max_outstanding:
            self.slot_stalls += 1
        super()._wait_for_slot()

    def _enforce_window(self) -> None:
        out = self._outstanding
        if out and self.instructions - out[0][1] >= self.config.window_size:
            self.window_stalls += 1
        super()._enforce_window()


def random_refs(seed):
    rng = random.Random(seed)
    kinds = [TraceKind.LOAD] * 6 + [TraceKind.STORE, TraceKind.DEP_LOAD]
    return [(rng.choice((0, 0, 1, 2, 3, 5, 8, 13)), rng.choice(BLOCKS),
             rng.choice(kinds)) for _ in range(REFS)]


def state_of(core):
    return (core.clock, core.instructions, core.stall_cycles,
            core.memory_refs, list(core._outstanding))


def reference_states(config, refs):
    """CoreModel state before each reference and after the last, and
    the core (for its stall tallies)."""
    core = CountingCore(0, config.core)
    lat = config.l1.access_latency
    states = [state_of(core)]
    for gap, _, kind in refs:
        core.advance_gap(gap)
        core.complete_memory(kind, core.issue_time() + lat)
        states.append(state_of(core))
    return states, core


def small_core_config():
    return replace(tiny_config(), core=CoreConfig(
        window_size=8, max_outstanding=3, issue_width=8))


def make_engine(refs):
    config = small_core_config()
    system = build("shared", config=config, check_tokens=False)
    total = system.ledger.total_tokens
    for block in BLOCKS:
        system.l1s[0].fill(block, tokens=total, dirty=False)
    traces = [TraceColumns.from_refs(refs)] + [None] * (config.num_cores - 1)
    engine = VectorizedEngine(system, traces)
    engine._journal = MirrorJournal(config.num_cores, total)
    engine._journal.install(system.l1s, system.ledger)
    return engine, config


def classify_from_start(engine):
    engine._pos[0] = 0
    engine._limit[0] = REFS
    engine._clock_v[0] = engine._instr_v[0] = 0
    engine._stall_v[0] = engine._mem_v[0] = 0
    engine._out_v[0] = type(engine._out_v[0])()
    engine._classify_and_scout(0)


def engine_state(engine):
    return (engine._clock_v[0], engine._instr_v[0], engine._stall_v[0],
            engine._mem_v[0], list(engine._out_v[0]))


@pytest.mark.parametrize("seed", SEEDS)
def test_scout_matches_core_model(seed):
    refs = random_refs(seed)
    engine, config = make_engine(refs)
    states, core = reference_states(config, refs)
    assert core.slot_stalls and core.window_stalls  # both rules fire
    classify_from_start(engine)
    assert engine._run_len[0] == REFS
    clock, instr, stalls, mem, out = engine._scout[0]
    assert engine._park_clock[0] == clock
    assert (clock, instr, stalls, mem, list(out)) == states[-1]


@pytest.mark.parametrize("seed", SEEDS)
def test_bounded_commit_lands_on_core_model_at_every_cut(seed):
    refs = random_refs(seed)
    engine, config = make_engine(refs)
    states, _ = reference_states(config, refs)
    keys = [state[0] for state in states[:-1]]   # issue key per reference
    for kc in sorted(set(keys) | {k + 1 for k in keys}):
        for kcid in (0, 1):  # the owner orders after / before core 0
            # References strictly before (kc, kcid) in (clock, core) order.
            expect = sum(1 for k in keys if k < kc or (k == kc and kcid > 0))
            classify_from_start(engine)
            engine._commit_bounded(0, kc, kcid)
            assert engine._pos[0] == expect, (kc, kcid)
            assert engine_state(engine) == states[expect], (kc, kcid)
            assert engine._run_len[0] == REFS - expect
            # The remainder's full commit still lands on the scout state.
            engine._commit_full(0)
            assert engine_state(engine) == states[-1], (kc, kcid)


#: Three times the tiny L1's 16 lines; half the references go to a hot
#: quarter of it, so hit stretches form but stay short.
BURST_POOL = [0x200 + i for i in range(48)]
BURST_REFS = 96


def burst_refs(seed):
    rng = random.Random(seed)
    kinds = [TraceKind.LOAD] * 4 + [TraceKind.STORE] * 3 + [TraceKind.DEP_LOAD]
    return [(rng.choice((0, 0, 1, 2, 5, 13)),
             rng.choice(BURST_POOL[:12] if rng.random() < 0.5
                        else BURST_POOL),
             rng.choice(kinds)) for _ in range(BURST_REFS)]


def run_capped(engine_cls, refs, cap):
    """One ``_run_phase(cap)`` on a fresh system: the core-0 state and
    the flat access counts, plus the core and the upgrades served (to
    show which rules fired)."""
    config = small_core_config()
    system = build("esp-nuca", config=config, check_tokens=False)
    # Core 1 reads the pool first, so core 0's read misses can come
    # back with fewer than all tokens and its store hits then upgrade.
    for block in BURST_POOL:
        system.access(1, block, False, 0)
    arch = system.architecture
    upgrades = []
    handle_upgrade = arch.handle_upgrade

    def counting_upgrade(*args):
        upgrades.append(args[0])
        return handle_upgrade(*args)

    arch.handle_upgrade = counting_upgrade
    trace = TraceColumns.from_refs(refs)
    traces = [trace if engine_cls is VectorizedEngine else iter(trace)]
    engine = engine_cls(system, traces + [None] * (config.num_cores - 1))
    engine.cores[0] = core = CountingCore(0, config.core)
    engine._run_phase(cap)
    return ((state_of(core), [list(rec) for rec in system._access_rec],
             system._l1_hits[0], system._l1_misses[0]),
            core, len(upgrades))


@pytest.mark.parametrize("seed", SEEDS)
def test_serve_burst_matches_reference_at_every_cap(seed):
    refs = burst_refs(seed)
    for cap in range(1, BURST_REFS + 1):
        expect, core, upgrades = run_capped(SimulationEngine, refs, cap)
        got, _, _ = run_capped(VectorizedEngine, refs, cap)
        assert got == expect, cap
    # The full trace exercises every branch of the serve and both
    # stall rules.
    _, _, hits, misses = expect
    assert hits and misses and upgrades
    assert core.window_stalls and core.slot_stalls
