"""Finished runs are freed by reference counting, and memoized traces
stay invisible to the cyclic garbage collector.

A finished :class:`~repro.sim.system.CmpSystem` used to be a cyclic
machine (system <-> architecture <-> banks <-> observers) that only the
cyclic collector could free; each full collection then walked several
dead systems plus every memoized trace item. ``simulate_point`` now
closes its system in a ``finally``, and traces are column objects.
These tests run with the collector disabled, so anything left to it
shows up as a live weak reference.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.check.oracles import FUZZ_ARCHITECTURES
from repro.common.config import scaled_config
from repro.harness import executor
from repro.harness.executor import RunPoint, simulate_point
from repro.harness.runner import RunSettings
from repro.obs.trace import Tracer, activated
from repro.sim.engines import ENGINES

SETTINGS = RunSettings(capacity_factor=8, refs_per_core=300,
                       warmup_refs_per_core=100, num_seeds=1)


def point(arch: str, engine: str = None) -> RunPoint:
    settings = (SETTINGS if engine is None else
                RunSettings(capacity_factor=8, refs_per_core=300,
                            warmup_refs_per_core=100, num_seeds=1,
                            engine=engine))
    return RunPoint(name=arch, workload="apache", seed=42,
                    config=scaled_config(8), settings=settings, arch=arch)


@pytest.fixture
def systems(monkeypatch):
    """Weak references to every system simulate_point builds, with the
    cyclic collector off for the whole test (assertions included)."""
    refs = []
    real = executor.CmpSystem

    def spy(*args, **kwargs):
        system = real(*args, **kwargs)
        refs.append(weakref.ref(system))
        return system

    monkeypatch.setattr(executor, "CmpSystem", spy)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if was_enabled:
            gc.enable()


def run(p: RunPoint, tracer: Tracer = None):
    if tracer is None:
        return simulate_point(p)
    with activated(tracer):
        return simulate_point(p)


class TestFinishedRunsFreed:
    @pytest.mark.parametrize("arch", FUZZ_ARCHITECTURES)
    def test_system_unreachable_after_run(self, arch, systems):
        for engine in ENGINES:
            run(point(arch, engine))
        assert len(systems) == len(ENGINES)
        assert all(ref() is None for ref in systems), (
            f"{arch}: a finished system is only reachable through cycles")

    @pytest.mark.parametrize("arch", FUZZ_ARCHITECTURES)
    def test_traced_run_freed(self, arch, systems):
        tracer = Tracer()
        result = run(point(arch), tracer)
        assert result.memory_accesses > 0 and tracer.events
        assert systems and systems[0]() is None

    def test_checked_run_freed(self, systems, monkeypatch):
        """An invariant checker points back at its system; close()
        drops it too."""
        monkeypatch.setenv("REPRO_CHECKS", "64")
        run(point("esp-nuca"))
        assert systems and systems[0]() is None

    def test_failed_run_freed(self, systems, monkeypatch):
        """The close() sits in a finally: a run that raises mid-way
        leaves no cyclic system behind either."""
        def explode(*args, **kwargs):
            raise RuntimeError("engine construction failed")

        monkeypatch.setattr(executor, "build_engine", explode)
        with pytest.raises(RuntimeError):
            run(point("esp-nuca"))
        assert systems and systems[0]() is None


class TestTraceMemo:
    def test_memoized_traces_add_o_cores_tracked_objects(self):
        p = point("esp-nuca")
        executor._trace_cache.clear()
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            traces = executor._cached_traces(p)
            after = len(gc.get_objects())
        finally:
            if was_enabled:
                gc.enable()
            executor._trace_cache.clear()
        refs = sum(len(t) for t in traces if t is not None)
        assert refs >= 8 * 400
        # A handful of lists per core trace (and the memo's own list),
        # never an object per reference.
        assert after - before <= 10 * len(traces) + 10
