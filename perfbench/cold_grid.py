"""cold-grid: the standard 40-point grid through ``Executor.run``.

Five designs (shared, private, d-nuca, asr, esp-nuca) x four workloads
(apache, oltp, CG, art-4) x two trace seeds, 2k measured plus 500
warm-up references per core at capacity factor 8. A serial
``Executor(jobs=1)`` runs the grid over an empty run cache in the run's
scratch directory (the cold pass, trace generation included); fresh
executors then re-run it against the populated cache until the run's
time is spent (the warm repeats: ``--seconds`` of them after the cold
pass, which is fixed work).

Why: every registered workload is miss-dominated (L1 hit rates
0.43-0.58), so the functional miss path does most of the cold work,
the engine's local path about a quarter and trace generation a few
per cent, while the warm repeat exercises ``harness.runcache`` alone.
Serial, so it times the engine rather than scheduling; the fabric is
loaded by the gateway workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from typing import Any, Dict, List, Tuple

from common import (Context, Outcome, canonical, median, peak_rss_mb,
                    percentile, time_setup_probes)
from spans import (SpanRecorder, engine_layer_metrics, instrument_engine,
                   instrument_system, simulated_counts)

ARCHS = ("shared", "private", "d-nuca", "asr", "esp-nuca")
WORKLOADS = ("apache", "oltp", "CG", "art-4")
#: Warm repeats the traced run times (the untraced run repeats until
#: its time is spent).
TRACED_WARM_PASSES = 20
#: Fewest warm repeats a run makes, so the p90 rests on >= 10 samples
#: beyond it even on a slow host.
MIN_WARM_PASSES = 100


def grid_seeds(seed: int) -> Tuple[int, int]:
    """Two trace seeds per run; seed 0 is the historical (42, 43)."""
    return 42 + 2 * seed, 43 + 2 * seed


def setup(ctx: Context) -> Dict[str, Any]:
    from repro.common.config import scaled_config
    from repro.harness.executor import Executor  # noqa: F401 (import cost)
    from repro.harness.runner import RunSettings, grid_points

    if ctx.tiny:
        archs, workloads, refs, warmup = ARCHS[-2:], WORKLOADS[:1], 200, 50
    else:
        archs, workloads, refs, warmup = ARCHS, WORKLOADS, 2_000, 500
    settings = RunSettings(capacity_factor=8, refs_per_core=refs,
                           warmup_refs_per_core=warmup, num_seeds=2)
    config = scaled_config(settings.capacity_factor)
    seeds = grid_seeds(ctx.seed)[:1] if ctx.tiny else grid_seeds(ctx.seed)
    points = grid_points(config, settings, archs, workloads, seeds)
    return {"points": points, "settings": settings}


def _digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        digest.update(canonical(result.to_dict()).encode())
    return digest.hexdigest()


def _fresh_dir(ctx: Context, name: str) -> str:
    path = os.path.join(ctx.tmp, name)
    os.makedirs(path)
    return path


def _executor(cache_dir: str, rec: SpanRecorder = None):
    from repro.harness.executor import Executor
    from repro.harness.runcache import RunCache

    executor = Executor(jobs=1, cache=RunCache(root=cache_dir))
    if rec is not None:
        cache = executor.cache
        key_of = lambda key, *_: key[:16]  # noqa: E731
        cache.get = rec.wrap("runcache.get", cache.get, keep=True,
                             request_of=key_of)
        cache.put = rec.wrap("runcache.put", cache.put, keep=True,
                             request_of=key_of)
        executor.run = rec.wrap("executor.run", executor.run, keep=True)
    return executor


def _passes(ctx: Context, points, cache_dir: str, rec: SpanRecorder = None
            ) -> Dict[str, Any]:
    """One cold pass then warm repeats: for ``ctx.seconds`` (untraced;
    at least MIN_WARM_PASSES) or exactly TRACED_WARM_PASSES (traced).
    Returns timings, results and the digest of every warm pass."""
    start = time.perf_counter()
    cold_exec = _executor(cache_dir, rec)
    cold = cold_exec.run(points)
    began = time.perf_counter()
    cold_s = began - start
    warm_s: List[float] = []
    digests: List[str] = []
    hits = lookups = 0
    executed = cold_exec.executed
    fixed = TRACED_WARM_PASSES if rec is not None else None
    floor = 3 if ctx.tiny else MIN_WARM_PASSES
    while True:
        if fixed is not None:
            if len(warm_s) >= (3 if ctx.tiny else fixed):
                break
        elif (len(warm_s) >= floor
              and time.perf_counter() - began >= ctx.seconds):
            break
        start = time.perf_counter()
        executor = _executor(cache_dir, rec)
        warm = executor.run(points)
        warm_s.append(time.perf_counter() - start)
        digests.append(_digest(warm))
        hits += executor.cache.hits
        lookups += executor.cache.hits + executor.cache.misses
        executed += executor.executed
    return {"cold_s": cold_s, "cold": cold, "warm_s": warm_s,
            "digests": digests, "hit_ratio": hits / max(lookups, 1),
            "executed": executed}


def _traced_passes(ctx: Context, points, rec: SpanRecorder
                   ) -> Dict[str, Any]:
    """The same passes with every layer wrapped. The executor module's
    globals are swapped for the pass and restored after."""
    from repro.harness import executor as executor_mod

    saved = {name: getattr(executor_mod, name)
             for name in ("materialize_traces", "build_engine",
                          "simulate_point")}
    original_build = saved["build_engine"]

    def build_engine(system, traces, engine=None):
        instrument_system(rec, system)
        built = original_build(system, traces, engine)
        instrument_engine(rec, built)
        return built

    executor_mod.materialize_traces = rec.wrap(
        "workloads.tracegen", saved["materialize_traces"], keep=True)
    executor_mod.build_engine = build_engine
    executor_mod.simulate_point = rec.wrap(
        "executor.simulate", saved["simulate_point"], keep=True,
        request_of=lambda point: point.key[:16])
    # The per-process trace memo holds the untraced pass's traces; the
    # traced cold pass must generate its own, as a cold run does.
    executor_mod._trace_cache.clear()
    try:
        return _passes(ctx, points, _fresh_dir(ctx, "traced-cache"), rec)
    finally:
        for name, value in saved.items():
            setattr(executor_mod, name, value)


def _reference(points) -> List[str]:
    """The oracle: every point on the reference engine, uncached, on
    two fabric workers (after the timed window)."""
    from repro.harness.executor import Executor
    from repro.harness.runcache import RunCache

    settings = dataclasses.replace(points[0].settings, engine="reference")
    ref_points = [dataclasses.replace(p, settings=settings) for p in points]
    executor = Executor(jobs=2, cache=RunCache(enabled=False))
    try:
        return [canonical(r.to_dict()) for r in executor.run(ref_points)]
    finally:
        executor.close()


def _gate(label: str, passes: Dict[str, Any], oracle: List[str],
          outcome: Outcome) -> None:
    cold = [canonical(r.to_dict()) for r in passes["cold"]]
    for i, (got, want) in enumerate(zip(cold, oracle)):
        if got != want:
            outcome.mismatch(f"{label}: point {i} differs from the "
                             f"reference engine")
    cold_digest = _digest(passes["cold"])
    for i, digest in enumerate(passes["digests"]):
        if digest != cold_digest:
            outcome.mismatch(f"{label}: warm pass {i} differs from the "
                             f"cold pass")


def measure(ctx: Context, state: Dict[str, Any], outcome: Outcome) -> None:
    points = state["points"]
    setup_samples = time_setup_probes(ctx, 3 if ctx.tiny else 5)
    passes = _passes(ctx, points, _fresh_dir(ctx, "cache"))
    rss = peak_rss_mb()
    traced = None
    if ctx.trace:
        rec = SpanRecorder()
        traced = _traced_passes(ctx, points, rec)
    oracle = _reference(points)

    for label, run in (("untraced", passes), ("traced", traced)):
        if run is None:
            continue
        outcome.attempted += len(points) * (1 + len(run["warm_s"]))
        _gate(label, run, oracle, outcome)

    refs = sum(r.memory_accesses for r in passes["cold"])
    warm_ms = [s * 1e3 for s in passes["warm_s"]]
    outcome.metrics.update({
        "setup_s": median(setup_samples),
        "peak_rss_mb": rss,
        "sim_refs_per_s": refs / passes["cold_s"],
        "request_ms_p90": percentile([passes["cold_s"] * 1e3] + warm_ms,
                                     0.90),
    })
    outcome.describe("cold_grid_s", passes["cold_s"], "s", 1)
    outcome.describe("warm_repeat_ms", median(warm_ms), "ms", len(warm_ms))
    outcome.describe("warm_repeat_ms_p90", percentile(warm_ms, 0.90), "ms",
                     len(warm_ms))
    if traced is None:
        return
    layers = engine_layer_metrics(rec)
    layers.update(simulated_counts([r.to_dict() for r in traced["cold"]]))
    layers.update({
        "workloads.tracegen.s": rec.total_s("workloads.tracegen"),
        "workloads.tracegen.calls": rec.calls("workloads.tracegen"),
        "runcache.get.calls": rec.calls("runcache.get"),
        "runcache.get.s": rec.total_s("runcache.get"),
        "runcache.put.calls": rec.calls("runcache.put"),
        "runcache.put.s": rec.total_s("runcache.put"),
        "runcache.hit_ratio": traced["hit_ratio"],
        "executor.run.s": rec.total_s("executor.run"),
        "executed_points": traced["executed"],
        "trace.overhead_pct": (traced["cold_s"] / passes["cold_s"] - 1) * 100,
    })
    outcome.metrics.update(layers)
    outcome.recorder = rec
