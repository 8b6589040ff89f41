"""hot-locality: seeded synthetic per-core traces whose working set fits
in the L1, simulated on esp-nuca by the vectorized engine.

Each of the eight cores references a private set of half the L1's
blocks (10% stores), so after the first touches nearly every reference
is an L1 hit (the gate requires a hit rate >= 0.99). The traces are
handed in memory to ``build_engine(..., "vectorized").run()``; one
operation is system construction, engine construction and the run,
repeated until the run's time is spent.

Why: almost all of the work is the engine's local path (epoch
classify/scout/commit and the CoreModel step) and the miss path does
little, so a miss-path change should leave this workload flat while a
change to the local path shows here first. Traces stay in memory
because loading them from disk costs more than the engine run.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List

from common import (Context, Outcome, canonical, median, peak_rss_mb,
                    percentile, time_setup_probes)
from spans import (SpanRecorder, engine_layer_metrics, instrument_engine,
                   instrument_system, simulated_counts)

ARCH = "esp-nuca"
REFS_PER_CORE = 10_000
WORKING_SET_VS_L1 = 0.5
STORE_FRACTION = 0.1
MIN_HIT_RATE = 0.99
#: Fewest runs a measured run makes: the p90 then rests on >= 10
#: samples beyond it.
MIN_RUNS = 100
TRACED_RUNS = 20


def synth_traces(config, seed: int, refs: int) -> List[list]:
    from repro.common.rng import substream
    from repro.sim.cpu import TraceItem, TraceKind

    blocks = max(4, int(config.l1.size // config.l1.block_size
                        * WORKING_SET_VS_L1))
    traces = []
    for core in range(config.num_cores):
        rng = substream(seed, f"hot-locality-core{core}")
        base = 0x400000 + core * 0x40000
        traces.append([
            TraceItem(gap=rng.randrange(3), block=base + rng.randrange(blocks),
                      kind=(TraceKind.STORE if rng.random() < STORE_FRACTION
                            else TraceKind.LOAD))
            for _ in range(refs)])
    return traces


def setup(ctx: Context) -> Dict[str, Any]:
    from repro.common.config import scaled_config
    import repro.sim.vector.engine  # noqa: F401 (imported lazily by build_engine)

    config = scaled_config(8)
    refs = 5_000 if ctx.tiny else REFS_PER_CORE
    return {"config": config, "refs": refs,
            "traces": synth_traces(config, ctx.seed, refs)}


def simulate(state: Dict[str, Any], engine: str, rec: SpanRecorder = None):
    from repro.architectures.registry import make_architecture
    from repro.sim.engines import build_engine
    from repro.sim.system import CmpSystem

    config = state["config"]
    system = CmpSystem(config, make_architecture(ARCH, config))
    if rec is not None:
        instrument_system(rec, system)
    built = build_engine(system, state["traces"], engine)
    if rec is not None:
        instrument_engine(rec, built)
    return built.run(max_refs_per_core=state["refs"], warmup_refs_per_core=0)


def _runs(ctx: Context, state, count: int = None, rec: SpanRecorder = None):
    """Timed vectorized runs: ``count`` of them, or until ``ctx.seconds``
    is spent (at least MIN_RUNS). Returns (seconds, payloads)."""
    times: List[float] = []
    payloads: List[str] = []
    floor = 3 if ctx.tiny else MIN_RUNS
    began = time.perf_counter()
    while True:
        if count is not None:
            if len(times) >= count:
                break
        elif len(times) >= floor and time.perf_counter() - began >= ctx.seconds:
            break
        start = time.perf_counter()
        result = simulate(state, "vectorized", rec)
        times.append(time.perf_counter() - start)
        payloads.append(canonical(result.to_dict()))
    return times, payloads


def measure(ctx: Context, state: Dict[str, Any], outcome: Outcome) -> None:
    setup_samples = time_setup_probes(ctx, 3 if ctx.tiny else 5)
    times, payloads = _runs(ctx, state)
    rss = peak_rss_mb()
    traced_times = traced_payloads = None
    if ctx.trace:
        rec = SpanRecorder()
        traced_times, traced_payloads = _runs(
            ctx, state, 3 if ctx.tiny else TRACED_RUNS, rec)
    oracle = simulate(state, "reference").to_dict()
    want = canonical(oracle)

    for label, batch in (("untraced", payloads), ("traced", traced_payloads)):
        if batch is None:
            continue
        outcome.attempted += len(batch)
        for i, got in enumerate(batch):
            if got != want:
                outcome.mismatch(f"{label}: run {i} differs from the "
                                 f"reference engine")
    accesses = oracle["l1_hits"] + oracle["l1_misses"]
    if oracle["l1_hits"] < MIN_HIT_RATE * accesses:
        outcome.mismatch(f"L1 hit rate {oracle['l1_hits'] / accesses:.4f} "
                         f"is below {MIN_HIT_RATE}: not a hot-locality input")

    run_ms = [t * 1e3 for t in times]
    p90_ms = percentile(run_ms, 0.90)
    refs = oracle["memory_accesses"]
    outcome.metrics.update({
        "setup_s": median(setup_samples),
        "peak_rss_mb": rss,
        # Sustained throughput: the rate nine runs in ten reach. The
        # host's speed alternates between two states; the slower one is
        # present in every run, the share of the faster one is not.
        "sim_refs_per_s": refs / (p90_ms / 1e3),
        "request_ms_p90": p90_ms,
    })
    outcome.describe("run_ms", median(run_ms), "ms", len(run_ms))
    outcome.describe("run_ms_p90", p90_ms, "ms", len(run_ms))
    outcome.describe("run_refs_per_s", refs * len(times) / sum(times),
                     "refs/s", len(times))
    outcome.describe("l1_hit_rate", oracle["l1_hits"] / accesses, "ratio", 1)
    if traced_times is None:
        return
    layers = engine_layer_metrics(rec)
    layers.update(simulated_counts([json.loads(p) for p in traced_payloads]))
    layers["trace.overhead_pct"] = (median(traced_times) / median(times)
                                    - 1) * 100
    outcome.metrics.update(layers)
    outcome.recorder = rec
