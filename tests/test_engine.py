"""Simulation kernel semantics: caps, exhaustion, ordering, warmup."""

from dataclasses import replace

import pytest

from repro.common.config import CheckConfig
from repro.sim.cpu import TraceItem, TraceKind
from repro.sim.engine import SimulationEngine

from tests.util import build, loads, tiny_config


def items(n, base=0x1000, gap=2):
    return loads(range(base, base + n), gap=gap)


class TestTraceHandling:
    def test_requires_one_trace_per_core(self):
        system = build("shared")
        with pytest.raises(ValueError):
            SimulationEngine(system, [iter([])])

    def test_exhausted_traces_end_run(self):
        system = build("shared")
        traces = [iter(items(10))] + [None] * 7
        result = SimulationEngine(system, traces).run()
        assert result.memory_accesses == 10

    def test_cap_limits_each_core(self):
        system = build("shared")
        traces = [iter(items(100, base=(c + 1) << 16)) for c in range(8)]
        result = SimulationEngine(system, traces).run(max_refs_per_core=5)
        assert result.memory_accesses == 40

    def test_idle_cores_contribute_nothing(self):
        system = build("shared")
        traces = [None] * 8
        traces[2] = iter(items(7))
        result = SimulationEngine(system, traces).run()
        assert result.per_core_instructions[3] == 0
        assert result.per_core_instructions[2] > 0


class TestInterleaving:
    def test_global_time_order_approximate(self):
        """A fast core must not starve a slow one: both finish."""
        system = build("shared")
        fast = loads(range(0x100, 0x100 + 50), gap=0)
        slow = [TraceItem(gap=50, block=0x9000 + i, kind=TraceKind.LOAD)
                for i in range(50)]
        traces = [iter(fast), iter(slow)] + [None] * 6
        result = SimulationEngine(system, traces).run()
        assert result.per_core_instructions[0] == 50
        assert result.per_core_instructions[1] == 50 * 51


class TestWarmup:
    def test_warmup_keeps_cache_state(self):
        system = build("shared")
        # 12 blocks fit the tiny 16-block L1 (3 per set).
        block_list = list(range(0x100, 0x10C)) * 11
        traces = [iter(loads(block_list))] + [None] * 7
        result = SimulationEngine(system, traces).run(
            max_refs_per_core=36, warmup_refs_per_core=96)
        # After eight warm-up laps everything hits in the L1.
        assert result.l1_misses == 0
        assert result.memory_accesses == 36

    def test_cycles_measured_from_reset(self):
        system = build("shared")
        traces = [iter(items(200))] + [None] * 7
        result = SimulationEngine(system, traces).run(
            max_refs_per_core=100, warmup_refs_per_core=100)
        full = build("shared")
        traces2 = [iter(items(200))] + [None] * 7
        total = SimulationEngine(full, traces2).run()
        assert 0 < result.cycles < total.cycles

    def test_invariant_hook_runs(self):
        config = replace(tiny_config(),
                         checks=CheckConfig(enabled=True, sample=1))
        system = build("shared", config=config)
        traces = [iter(items(20))] + [None] * 7
        SimulationEngine(system, traces).run()
        checker = system.checker
        assert checker.sweeps == 20 // checker.sample
        assert checker.violations == 0
