"""The invariant checker: wiring, sampling, and one deliberate state
corruption per invariant family (each must be caught by a sweep)."""

from dataclasses import replace

import pytest

from repro.cache.block import BlockClass, L2Line
from repro.check.invariants import FAMILIES, InvariantViolation
from repro.common.config import CheckConfig
from repro.architectures.registry import make_architecture
from repro.sim.system import CmpSystem
from tests.util import loads, run_trace, tiny_config


def checked_system(arch: str = "esp-nuca", sample: int = 1,
                   raise_on_violation: bool = True) -> CmpSystem:
    config = replace(tiny_config(), checks=CheckConfig(
        enabled=True, sample=sample, raise_on_violation=raise_on_violation))
    return CmpSystem(config, make_architecture(arch, config))


def warm(system: CmpSystem, refs: int = 400) -> None:
    """Mixed traffic sized to overflow the tiny L1s, so the L2 banks
    hold live private and shared entries afterwards."""
    num_cores = system.config.num_cores
    t = 0
    for i in range(refs):
        core = i % num_cores
        if i % 3 == 0:
            block = 0x1000 + (i // 3) % 24  # shared across cores
        else:
            block = 0x2000 + core * 0x100 + (i // num_cores) % 40
        system.access(core, block, is_write=(i % 7 == 0), t_issue=t)
        t += 10


def expect_violation(system: CmpSystem, family: str) -> None:
    with pytest.raises(InvariantViolation) as excinfo:
        system.checker.sweep()
    assert excinfo.value.family == family


def some_l2_holding(system: CmpSystem, min_tokens: int = 1):
    for state in system.ledger._states.values():
        for line in state.l2:
            if line.tokens >= min_tokens:
                return line
    raise AssertionError("no suitable L2 entry on chip after warmup")


class TestWiring:
    def test_disabled_by_default(self):
        config = tiny_config()
        system = CmpSystem(config, make_architecture("esp-nuca", config))
        assert system.checker is None

    def test_enabled_via_config(self):
        system = checked_system()
        assert system.checker is not None
        warm(system, refs=10)
        assert system.checker.sweeps == 10
        assert system.checker.violations == 0

    def test_sampling_knob(self):
        system = checked_system(sample=3)
        warm(system, refs=10)
        assert system.checker.sweeps == 10 // 3

    def test_sample_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckConfig(enabled=True, sample=0)

    def test_stats_mounted(self):
        system = checked_system()
        warm(system, refs=5)
        snapshot = system.stats.to_dict()
        assert snapshot["check"]["sweeps"] == 5
        assert snapshot["check"]["violations"] == 0
        assert set(snapshot["check"]["by_family"]) == set(FAMILIES)


class TestEnvOverride:
    def test_env_forces_checking_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKS", "2")
        config = tiny_config()  # checks disabled in the config
        system = CmpSystem(config, make_architecture("esp-nuca", config))
        assert system.checker is not None
        assert system.checker.sample == 2

    def test_env_forces_checking_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKS", "0")
        config = replace(tiny_config(),
                         checks=CheckConfig(enabled=True))
        system = CmpSystem(config, make_architecture("esp-nuca", config))
        assert system.checker is None

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKS", "often")
        config = tiny_config()
        with pytest.raises(ValueError, match="REPRO_CHECKS"):
            CmpSystem(config, make_architecture("esp-nuca", config))


class TestCorruptionsCaught:
    """One injected corruption per family; the next sweep must name it."""

    def test_tokens_lost_token(self):
        system = checked_system()
        warm(system)
        some_l2_holding(system).tokens -= 1
        expect_violation(system, "tokens")

    def test_tokens_unregistered_resident(self):
        system = checked_system()
        warm(system)
        holding = some_l2_holding(system)
        # The ledger forgets the entry but it stays resident in the bank.
        system.ledger.forget_l2(holding.block, holding)
        expect_violation(system, "tokens")

    def test_tokens_dangling_holding(self):
        system = checked_system()
        warm(system)
        holding = some_l2_holding(system)
        # Resident copy vanishes from the bank; the ledger still points
        # at it. (remove() keeps the set counts, tag map and stamps
        # coherent, so only the directory cross-check can fire.)
        system.architecture.banks[holding.bank_id].remove(
            holding.set_index, holding)
        expect_violation(system, "tokens")

    def test_helping_count_drift(self):
        system = checked_system()
        warm(system)
        holding = some_l2_holding(system)
        system.architecture.banks[holding.bank_id] \
            .helping[holding.set_index] += 1
        expect_violation(system, "helping")

    def test_duplicate_resident_copy(self):
        system = checked_system()
        warm(system)
        holding = some_l2_holding(system, min_tokens=2)
        bank = system.architecture.banks[holding.bank_id]
        ways = bank.lines[holding.set_index]
        entry = holding
        # Split the entry into two registered, conservation-preserving
        # copies of the same (block, cls, owner) — the exact corruption
        # the duplicates family exists to catch — planted behind the
        # install() guard's back.
        entry.tokens -= 1
        clone = L2Line(block=entry.block, cls=entry.cls,
                       owner=entry.owner, tokens=1)
        clone.bank_id, clone.set_index = entry.bank_id, entry.set_index
        system.ledger.register_l2(entry.block, clone)
        for way, resident in enumerate(ways):
            if resident is None or resident is not entry:
                ways[way] = clone
                clone.way = way
                break
        expect_violation(system, "duplicates")

    def test_tag_map_drift(self):
        system = checked_system()
        warm(system)
        holding = some_l2_holding(system)
        # The line stays in its way but drops out of the set's tag map,
        # so probes can no longer find it.
        tags = system.architecture.banks[holding.bank_id] \
            .tags[holding.set_index]
        if tags[holding.block] is holding:
            del tags[holding.block]
        else:
            head = tags[holding.block]
            while head.next is not holding:
                head = head.next
            head.next = holding.next
        expect_violation(system, "duplicates")

    def test_budget_nmax_out_of_range(self):
        system = checked_system()
        warm(system)
        bank = system.architecture.banks[0]
        bank.nmax = bank.ways + 3
        expect_violation(system, "budget")

    def test_lru_stamp_beyond_counter(self):
        system = checked_system()
        warm(system)
        holding = some_l2_holding(system)
        bank = system.architecture.banks[holding.bank_id]
        holding.lru = bank._stamp + 100
        expect_violation(system, "lru")

    def test_classifier_stale_private_entry(self):
        system = checked_system(arch="sp-nuca")
        warm(system)
        # Find a block with an owned (PRIVATE) L2 entry and flip its
        # classification without scrubbing the entry.
        for block, state in system.ledger._states.items():
            if any(h.cls is BlockClass.PRIVATE
                   for h in state.l2):
                system.architecture.classifier.force_shared(block)
                break
        else:
            raise AssertionError("no PRIVATE L2 entry after warmup")
        expect_violation(system, "classifier")


class TestNonRaisingMode:
    def test_violations_counted_not_raised(self):
        system = checked_system(raise_on_violation=False)
        warm(system)
        some_l2_holding(system).tokens -= 1
        system.checker.sweep()  # must not raise
        assert system.checker.violations >= 1
        assert system.checker.violations_of("tokens") >= 1

    def test_violation_emits_trace_instant(self):
        from repro.obs import Tracer

        system = checked_system(raise_on_violation=False)
        tracer = Tracer(categories=["check"])
        system.set_tracer(tracer)
        warm(system)
        before = tracer.emitted
        some_l2_holding(system).tokens -= 1
        system.checker.sweep()
        assert tracer.emitted > before


class TestHealthyRuns:
    @pytest.mark.parametrize("arch", ["esp-nuca", "esp-nuca-flat",
                                      "sp-nuca", "shared"])
    def test_no_violations_on_clean_traffic(self, arch):
        system = checked_system(arch=arch)
        traces = [loads(range(0x500 + core * 16, 0x500 + core * 16 + 48))
                  for core in range(system.config.num_cores)]
        run_trace(system, traces)
        assert system.checker.sweeps > 0
        assert system.checker.violations == 0
