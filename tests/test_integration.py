"""Cross-module integration: every architecture end-to-end on real
workload traces with invariant checking, determinism, and the directed
capacity scenarios behind the paper's headline shapes."""

from dataclasses import replace

import pytest

from repro.architectures.registry import architecture_names, make_architecture
from repro.common.config import CheckConfig, scaled_config
from repro.sim.engine import SimulationEngine
from repro.sim.request import Supplier
from repro.sim.system import CmpSystem
from repro.workloads.base import TraceGenerator
from repro.workloads.registry import get_workload

from repro.workloads.synthetic import single_core_traces

from tests.util import build, loads, run_trace

SMALL_REFS = 1200


def run_workload(arch_name, workload="apache", seed=1, check=True,
                 config=None):
    config = config or scaled_config(8)
    if check:
        # A full invariant sweep every 2000 demand accesses.
        config = replace(config, checks=CheckConfig(enabled=True,
                                                    sample=2000))
    system = CmpSystem(config, make_architecture(arch_name, config),
                       check_tokens=check)
    spec = get_workload(workload).capacity_scaled(8).scaled(SMALL_REFS)
    engine = SimulationEngine(system, TraceGenerator(spec, seed).traces(
        config.num_cores))
    result = engine.run()
    if check:
        system.check_invariants()
    return system, result


@pytest.mark.parametrize("arch", architecture_names())
def test_every_architecture_runs_clean(arch):
    system, result = run_workload(arch)
    assert result.memory_accesses == SMALL_REFS * 8
    assert result.cycles > 0
    assert result.performance > 0
    total = sum(result.supplier_count.values())
    assert total == result.memory_accesses


@pytest.mark.parametrize("arch", ["shared", "private", "esp-nuca", "d-nuca"])
def test_determinism(arch):
    _, a = run_workload(arch, check=False)
    _, b = run_workload(arch, check=False)
    assert a.cycles == b.cycles
    assert a.supplier_count == b.supplier_count
    assert a.offchip_demand == b.offchip_demand


def test_seeds_differ():
    _, a = run_workload("shared", seed=1, check=False)
    _, b = run_workload("shared", seed=2, check=False)
    assert a.cycles != b.cycles


class TestAccountingConsistency:
    def test_latency_components_sum(self):
        _, result = run_workload("esp-nuca")
        assert sum(result.supplier_cycles.values()) > 0
        assert result.average_access_time > 0
        recomposed = sum(result.access_time_component(s) for s in Supplier)
        assert recomposed == pytest.approx(result.average_access_time)

    def test_l1_counters_match_supplier_counts(self):
        _, result = run_workload("shared")
        assert result.l1_hits == result.supplier_count[Supplier.L1_LOCAL]
        assert result.l1_misses == result.memory_accesses - result.l1_hits

    def test_offchip_supplier_means_memory_was_used(self):
        _, result = run_workload("private")
        assert result.offchip_demand >= result.supplier_count[Supplier.OFFCHIP]


class TestPaperShapes:
    """The qualitative orderings the paper's figures rest on, in
    miniature (single seed, short runs — directions only)."""

    def test_single_thread_prefers_shared_capacity(self):
        """One thread looping over more than its private partition:
        a shared organization must beat the private one (Section 3.1's
        motivating limit case), and ESP-NUCA must recover most of the
        gap through victims."""
        config = scaled_config(8)
        partition_blocks = (config.l2.sets_per_bank * config.l2.assoc
                            * config.private_banks_per_core)
        footprint = int(partition_blocks * 2.5)
        blocks = list(range(1 << 20, (1 << 20) + footprint))
        perf = {}
        for arch in ("shared", "private", "esp-nuca"):
            system = CmpSystem(config, make_architecture(arch, config))
            trace = loads(blocks * 3, gap=2)
            result = run_trace(system, single_core_traces(8, 0, iter(trace)))
            perf[arch] = result.performance
        assert perf["shared"] > perf["private"] * 1.05
        assert perf["esp-nuca"] > perf["private"]

    def test_shared_data_locality_favours_private_side(self):
        """All cores hammering a small shared region: private-style
        replication beats remote shared banks on latency."""
        config = scaled_config(8)
        hot = [b for b in range(1 << 12, (1 << 12) + 64)]
        perf = {}
        for arch in ("shared", "private"):
            system = CmpSystem(config, make_architecture(arch, config))
            traces = [iter(loads(hot * 40, gap=2)) for _ in range(8)]
            result = run_trace(system, traces)
            perf[arch] = result.performance
        assert perf["private"] > perf["shared"]


class TestWarmup:
    def test_warmup_excluded_from_stats(self):
        config = scaled_config(8)
        system = CmpSystem(config, make_architecture("shared", config))
        spec = get_workload("gcc-4").capacity_scaled(8).scaled(2000)
        engine = SimulationEngine(
            system, TraceGenerator(spec, 1).traces(config.num_cores))
        result = engine.run(max_refs_per_core=1000,
                            warmup_refs_per_core=1000)
        # The OS-service core's short trace ends during warm-up, so the
        # measured phase sees the four application cores only.
        assert result.memory_accesses == 1000 * 4
        assert result.cycles > 0
