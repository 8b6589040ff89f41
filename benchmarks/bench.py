"""Wall-clock benchmark scenarios; writes BENCH.json at the repo root.

One driver, one schema. Each scenario times its passes on fresh
runners and executors, alternates the order of its arms from round to
round so host drift lands on every arm alike, and records what each
number includes (docs/performance.md explains how to read the file):

* ``fabric`` — one cold figure-suite grid at fabric widths 1, 2 (and
  the CPU count when it is above 2); results must be identical at
  every width, and two workers must reach >= 1.7x on a multi-core host;
* ``engines`` — the cold 40-point grid and a synthetic locality sweep
  under the reference and the vectorized engine; every point's
  ``to_dict()`` must be identical under both;
* ``telemetry`` — an interleaved on/off A/B of the gateway's telemetry
  (enabled but never scraped), bound <= 2 % in a full run;
* ``tracing`` — a cold serial grid with tracing off, on and sampled;
* ``checks`` — one reduced point with invariant checking off, sparse
  (``sample=64``) and full (``sample=1``);
* ``recovery`` — a gateway booted against a queued backlog whose points
  are all cache-resident, timed until every stored job is done.

The repository benchmark that gates changes (cold-grid, warm-grid and
gateway figures, with bounds) is ``perfbench/``; these scenarios cover
what it does not: fabric scaling, engine parity, and the cost of the
observers when they are switched on.

File layout::

    {"schema": 1, "environment": {...},
     "scenarios": {name: {"settings": {...},
                          "passes": {pass: {"label": ..., ...}},
                          "acceptance": {"criterion": ..., "pass": ...,
                                         "enforced": ...}}}}

The exit status is 1 when an enforced acceptance fails. ``--quick``
shrinks every scenario for CI and still runs every identity assert and
the fabric bound; its telemetry A/B is below the host's noise floor, so
that bound is enforced only in a full run. Only a full run of every
scenario writes the committed BENCH.json; a ``--quick`` or
``--scenario`` run needs ``--out``.

Usage::

    PYTHONPATH=src python benchmarks/bench.py [--scenario NAME ...] \\
        [--quick] [--out BENCH.json]
"""

import argparse
import gc
import json
import os
import sys
import tempfile
import time
from contextlib import ExitStack
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.architectures.registry import make_architecture
from repro.common.config import CheckConfig, scaled_config
from repro.common.rng import substream
from repro.gateway import GatewayClient, GatewayConfig, GatewayThread, JobStore
from repro.harness.executor import Executor, materialize_traces
from repro.harness.runcache import RunCache
from repro.harness.runner import ExperimentRunner, RunSettings, grid_points
from repro.obs import Tracer, activated
from repro.obs.metrics import parse_exposition
from repro.sim.cpu import TraceItem, TraceKind
from repro.sim.engines import build_engine
from repro.sim.system import CmpSystem
from repro.sim.vector.soa import HAS_NUMPY

SCHEMA = 1


# -- shared core ---------------------------------------------------------------

def timed_grid(settings, archs, workloads, jobs=1, cache_dir=None,
               config=None):
    """One grid on a fresh runner and executor: ``(seconds, per-point
    cycles, fabric stats)``. Without ``cache_dir`` the run cache is
    off, so every point is simulated. The process's trace memo is
    kept: the first pass generates the traces, and later passes, and
    fabric workers forked after it, reuse them."""
    cache = (RunCache(root=cache_dir) if cache_dir is not None
             else RunCache(enabled=False))
    executor = Executor(jobs=jobs, cache=cache)
    try:
        runner = ExperimentRunner(settings, config=config, executor=executor)
        start = time.perf_counter()
        matrix = runner.matrix(archs, workloads)
        elapsed = time.perf_counter() - start
        fabric = executor.fabric_stats()
    finally:
        executor.close()
    cycles = {f"{arch}/{wl}": [r.cycles for r in agg.runs]
              for (arch, wl), agg in matrix.items()}
    return elapsed, cycles, fabric


def interleave(arms, rounds):
    """Run every ``(name, fn)`` arm once per round, reversing the arm
    order on odd rounds so drift on any scale coarser than one round
    lands on each arm alike. ``fn()`` returns seconds; the result maps
    each name to its per-round seconds."""
    times = {name: [] for name, _ in arms}
    for index in range(rounds):
        for name, fn in (arms[::-1] if index % 2 else arms):
            times[name].append(fn())
    return times


def gc_paused(fn):
    """``fn`` with the cyclic GC paused, so a collection cannot land in
    one arm only."""
    def run():
        gc.collect()
        gc.disable()
        try:
            return fn()
        finally:
            gc.enable()
    return run


def environment(quick):
    return {"cpu_count": os.cpu_count() or 1,
            "python": sys.version.split()[0], "numpy": HAS_NUMPY,
            "quick": quick}


def grid_settings(settings, archs, workloads, **extra):
    return dict({"architectures": list(archs), "workloads": list(workloads),
                 "seeds": settings.num_seeds,
                 "refs_per_core": settings.refs_per_core,
                 "warmup_refs_per_core": settings.warmup_refs_per_core,
                 "capacity_factor": settings.capacity_factor}, **extra)


def rounded(seconds):
    return [round(t, 3) for t in seconds]


def write(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# -- fabric --------------------------------------------------------------------

FABRIC_MIN_SPEEDUP = 1.7


def fabric(quick):
    """Cold-grid scaling of the worker fabric."""
    if quick:
        archs, workloads = ["shared", "esp-nuca"], ["apache", "CG"]
        settings = RunSettings(capacity_factor=8, refs_per_core=600,
                               warmup_refs_per_core=150, num_seeds=1)
    else:
        archs = ["shared", "private", "d-nuca", "esp-nuca"]
        workloads = ["apache", "oltp", "CG"]
        settings = RunSettings(capacity_factor=8, refs_per_core=2_000,
                               warmup_refs_per_core=500, num_seeds=2)
    cpus = os.cpu_count() or 1
    widths = [1, 2] + ([cpus] if cpus > 2 else [])
    points = len(archs) * len(workloads) * settings.num_seeds
    baseline, stats = {}, {}

    def arm(workers):
        def run():
            with tempfile.TemporaryDirectory(prefix="repro_bench_") as tmp:
                elapsed, cycles, stats[workers] = timed_grid(
                    settings, archs, workloads, jobs=workers, cache_dir=tmp)
            baseline.setdefault("cycles", cycles)
            assert cycles == baseline["cycles"], \
                f"workers={workers} results diverge"
            return elapsed
        return run

    # One pass per width, in width order: the serial pass is the first
    # in the process and generates the traces, and the workers forked
    # after it inherit them (ROADMAP item 1).
    times = interleave([(f"workers_{w}", arm(w)) for w in widths], 1)
    serial = times["workers_1"][0]
    passes = {}
    for workers in widths:
        seconds = times[f"workers_{workers}"][0]
        entry = {
            "label": ("serial fallback, the first pass in the process: "
                      "includes trace generation" if workers == 1 else
                      f"{workers} worker processes forked after the serial "
                      f"pass: inherit its memoized traces")
                     + "; cold grid into an empty run cache (simulation, "
                       "cache writes and fabric start-up; teardown "
                       "excluded)",
            "wall_clock_s": round(seconds, 3),
            "throughput_points_per_s": round(points / seconds, 3),
            "speedup_vs_workers_1": round(serial / seconds, 2),
        }
        if stats[workers] is not None:
            entry["worker_pids_used"] = len(
                stats[workers]["completed_by_pid"])
            entry["jobs_requeued"] = stats[workers]["requeued"]
        passes[f"workers_{workers}"] = entry
    speedup = passes["workers_2"]["speedup_vs_workers_1"]
    print(f"fabric: workers=2 {speedup}x workers=1", flush=True)
    return {
        "settings": grid_settings(settings, archs, workloads,
                                  timing="one pass per width, in width "
                                         "order"),
        "passes": passes,
        "acceptance": {
            "criterion": f"results identical at every width (asserted); "
                         f"workers=2 >= {FABRIC_MIN_SPEEDUP}x workers=1 "
                         f"on a multi-core host",
            "speedup_at_2_workers": speedup,
            "pass": speedup >= FABRIC_MIN_SPEEDUP,
            "enforced": cpus >= 2,
        },
    }


# -- engines -------------------------------------------------------------------

ENGINES = ("reference", "vectorized")
#: Per-core private working set as a fraction of L1 capacity. Below 1.0
#: every reference after the first lap is a local hit and epoch batching
#: pays; above it the set thrashes and the shared miss path dominates
#: both engines alike.
LOCALITY_FRACTIONS = (0.25, 0.5, 1.0, 2.0)
LOCALITY_REFS = 8_000


def timed_engine(engine, config, arch, traces, refs, warmup):
    system = CmpSystem(config, make_architecture(arch, config))
    built = build_engine(system, traces, engine)
    start = time.perf_counter()
    result = built.run(max_refs_per_core=refs, warmup_refs_per_core=warmup)
    return time.perf_counter() - start, result.to_dict()


def locality_traces(config, fraction, seed=9):
    l1_blocks = config.l1.size // config.l1.block_size
    working_set = max(int(l1_blocks * fraction), 4)
    traces = []
    for core in range(config.num_cores):
        rng = substream(seed, f"locality-core{core}")
        base = 0x400000 + core * 0x40000
        traces.append([TraceItem(gap=rng.randrange(3),
                                 block=base + rng.randrange(working_set),
                                 kind=TraceKind.LOAD)
                       for _ in range(LOCALITY_REFS)])
    return traces


def engine_rounds(config, points, rounds):
    """Time every ``(key, arch, traces, refs, warmup)`` point under both
    engines, engines interleaved, GC paused. Every result must equal
    the first one computed for its point. Returns per-engine totals
    and per-point times, each as a list over rounds."""
    baseline = {}
    per_point = {engine: {key: [] for key, *_ in points}
                 for engine in ENGINES}

    def arm(engine):
        def run():
            total = 0.0
            for key, arch, traces, refs, warmup in points:
                elapsed, result = timed_engine(engine, config, arch, traces,
                                               refs, warmup)
                assert baseline.setdefault(key, result) == result, \
                    f"{engine} diverged at {key}"
                per_point[engine][key].append(elapsed)
                total += elapsed
            return total
        return gc_paused(run)

    totals = interleave([(engine, arm(engine)) for engine in ENGINES],
                        rounds)
    return totals, per_point, baseline


def engine_row(per_point, results, key):
    """One point's minimum per engine, their ratio and its L1 hit rate."""
    ref_s = min(per_point["reference"][key])
    vec_s = min(per_point["vectorized"][key])
    result = results[key]
    return {"l1_hit_rate": round(result["l1_hits"] / max(
                result["l1_hits"] + result["l1_misses"], 1), 3),
            "reference_s": round(ref_s, 3), "vectorized_s": round(vec_s, 3),
            "speedup": round(ref_s / vec_s, 2)}


def engines(quick):
    """Reference vs vectorized engine on the cold grid and the
    locality sweep."""
    archs = ["shared", "private", "d-nuca", "asr", "esp-nuca"]
    workloads = ["apache", "oltp", "CG", "art-4"]
    seeds = (42, 43)
    fractions = LOCALITY_FRACTIONS
    if quick:
        archs, workloads, seeds = archs[:2], workloads[:2], seeds[:1]
        fractions = LOCALITY_FRACTIONS[1:3]
    settings = RunSettings(capacity_factor=8, refs_per_core=2_000,
                           warmup_refs_per_core=500, num_seeds=len(seeds))
    rounds = 2 if quick else 3
    config = scaled_config(settings.capacity_factor)

    grid = []
    for workload in workloads:
        for seed in seeds:
            traces = materialize_traces(config, settings, workload, seed)
            grid += [((arch, workload, seed), arch, traces,
                      settings.refs_per_core, settings.warmup_refs_per_core)
                     for arch in archs]
    totals, per_point, results = engine_rounds(config, grid, rounds)
    ref_t, vec_t = min(totals["reference"]), min(totals["vectorized"])
    rows = [dict(architecture=key[0], workload=key[1], seed=key[2],
                 **engine_row(per_point, results, key))
            for key, *_ in grid]

    sweep_points = [(fraction, "esp-nuca", locality_traces(config, fraction),
                     LOCALITY_REFS, 0) for fraction in fractions]
    _, sweep_times, sweep_results = engine_rounds(config, sweep_points,
                                                  rounds)
    sweep = [dict(working_set_vs_l1=fraction,
                  **engine_row(sweep_times, sweep_results, fraction))
             for fraction, *_ in sweep_points]
    print(f"engines: cold grid {ref_t / vec_t:.2f}x "
          f"({ref_t:.2f}s -> {vec_t:.2f}s)", flush=True)
    return {
        "settings": grid_settings(
            settings, archs, workloads, seeds=list(seeds), rounds=rounds,
            locality_refs_per_core=LOCALITY_REFS,
            timing="traces pre-materialized, GC paused, engines "
                   "interleaved; minimum over rounds"),
        "passes": {
            "contention_grid": {
                "label": "engine run() wall-clock summed over the cold "
                         "grid (system construction and trace generation "
                         "excluded); miss-dominated, so most time is the "
                         "shared miss path",
                "points": len(grid),
                "reference_total_s": round(ref_t, 3),
                "vectorized_total_s": round(vec_t, 3),
                "reference_rounds_s": rounded(totals["reference"]),
                "vectorized_rounds_s": rounded(totals["vectorized"]),
                "speedup": round(ref_t / vec_t, 3),
            },
            "engine_grid": {
                "label": "the same passes per point: engine run() "
                         "wall-clock, minimum over rounds",
                "rows": rows,
            },
            "locality_sweep": {
                "label": "esp-nuca, synthetic private working sets scaled "
                         "against the L1, engine run() wall-clock: epoch "
                         "batching pays in proportion to the share of "
                         "local references",
                "rows": sweep,
            },
        },
        "acceptance": {
            "criterion": "every point's to_dict() identical under both "
                         "engines in every round (asserted)",
            "pass": True,
            "enforced": True,
        },
    }


# -- gateway scenarios ---------------------------------------------------------

GATEWAY_SETTINGS = RunSettings(capacity_factor=8, refs_per_core=400,
                               warmup_refs_per_core=100, num_seeds=1)
SETTINGS_WIRE = {"refs_per_core": GATEWAY_SETTINGS.refs_per_core,
                 "warmup_refs_per_core":
                     GATEWAY_SETTINGS.warmup_refs_per_core,
                 "capacity_factor": GATEWAY_SETTINGS.capacity_factor}
GATEWAY_GRID = (["esp-nuca"], ["apache"])


def prewarm(cache_dir, seeds):
    """Execute each single-seed gateway grid once into the run cache."""
    config = scaled_config(GATEWAY_SETTINGS.capacity_factor)
    executor = Executor(jobs=1, cache=RunCache(root=cache_dir))
    for seed in seeds:
        executor.run(grid_points(config, GATEWAY_SETTINGS, *GATEWAY_GRID,
                                 [seed]))


def gateway(db_path, cache_dir, **overrides):
    config = GatewayConfig(bind=("tcp", "127.0.0.1", 0), db_path=db_path,
                           allow_anonymous=True, **overrides)
    return GatewayThread(config,
                         executor=Executor(jobs=1,
                                           cache=RunCache(root=cache_dir)),
                         settings=GATEWAY_SETTINGS)


MAX_TELEMETRY_OVERHEAD = 0.02


def telemetry_session(workdir, cache_dir, tag, chunks, chunk_listings, seeds,
                      flip=False):
    """One interleaved session: a telemetry=True and a telemetry=False
    gateway alive at once (own store each, shared prewarmed cache), the
    measured requests alternating between them in chunks. ``flip``
    reverses which gateway boots first; alternating it across sessions
    cancels any boot-order placement bias. Returns (on_s, off_s)."""
    with ExitStack() as stack:
        handles = {}
        for is_on in ([False, True] if flip else [True, False]):
            handles[is_on] = stack.enter_context(gateway(
                os.path.join(workdir, f"{tag}-{is_on}.sqlite"), cache_dir,
                telemetry=is_on, anon_max_jobs=10_000,
                anon_max_points=100_000, anon_rate_capacity=1e9,
                anon_rate_refill=1e9))
        clients = {is_on: stack.enter_context(
                       GatewayClient(handles[is_on].base_url))
                   for is_on in (True, False)}
        for client in clients.values():
            reply = client.submit(*GATEWAY_GRID, seeds=[seeds[0]],
                                  settings=SETTINGS_WIRE)
            assert reply["state"] == "done", \
                "prewarmed grids must answer inline from the cache"
            for _ in range(30):
                client.jobs()  # warm the connection and listing path

        def listings(client):
            def run():
                start = time.perf_counter()
                for _ in range(chunk_listings):
                    client.jobs()
                return time.perf_counter() - start
            return run

        def submits(client):
            pending = iter(seeds[1:])

            def run():
                start = time.perf_counter()
                client.submit(*GATEWAY_GRID, seeds=[next(pending)],
                              settings=SETTINGS_WIRE)
                return time.perf_counter() - start
            return run

        def measured():
            listed = interleave([("on", listings(clients[True])),
                                 ("off", listings(clients[False]))], chunks)
            submitted = interleave([("on", submits(clients[True])),
                                    ("off", submits(clients[False]))],
                                   len(seeds) - 1)
            return (sum(listed["on"]) + sum(submitted["on"]),
                    sum(listed["off"]) + sum(submitted["off"]))

        return gc_paused(measured)()


def telemetry(quick):
    """Cost of telemetry that is on but never scraped."""
    sessions = 2 if quick else 12
    chunks = 30 if quick else 50
    chunk_listings = 25
    submits = 6 if quick else 10
    scrapes = 20 if quick else 50
    seeds = list(range(6000, 6000 + submits))
    with tempfile.TemporaryDirectory(prefix="repro_bench_") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        prewarm(cache_dir, seeds)
        # Discarded warm-up session: a process's first sections run far
        # slower than steady state.
        telemetry_session(tmp, cache_dir, "warmup", max(4, chunks // 8),
                          chunk_listings, seeds[:2])
        on_s, off_s = [], []
        for index in range(sessions):
            on_t, off_t = telemetry_session(
                tmp, cache_dir, f"pair-{index}", chunks, chunk_listings,
                seeds, flip=bool(index % 2))
            on_s.append(on_t)
            off_s.append(off_t)
        with gateway(os.path.join(tmp, "scrape.sqlite"), cache_dir) as handle:
            with GatewayClient(handle.base_url) as client:
                for seed in seeds[:2]:
                    client.submit(*GATEWAY_GRID, seeds=[seed],
                                  settings=SETTINGS_WIRE)
                text = client.metrics()
                start = time.perf_counter()
                for _ in range(scrapes):
                    client.metrics()
                scrape_s = (time.perf_counter() - start) / scrapes
    on_t, off_t = sum(on_s), sum(off_s)
    ratio = on_t / off_t - 1.0
    requests = (chunks * chunk_listings + submits - 1) * sessions
    print(f"telemetry: on {on_t:.3f}s off {off_t:.3f}s ({ratio:+.2%})",
          flush=True)
    return {
        "settings": {
            "architectures": GATEWAY_GRID[0], "workloads": GATEWAY_GRID[1],
            "refs_per_core": GATEWAY_SETTINGS.refs_per_core,
            "capacity_factor": GATEWAY_SETTINGS.capacity_factor,
            "sessions": sessions, "chunks": chunks,
            "chunk_listings": chunk_listings,
            "cache_hit_submits_per_session": submits - 1,
            "timing": "both gateways alive at once, request chunks "
                      "alternating between arms; a warm-up session "
                      "discarded; session totals pooled"},
        "passes": {
            "on": {"label": "telemetry=True (the default), /metrics never "
                            "scraped: GET /v1/jobs listings and cache-hit "
                            "POST /v1/jobs round-trips over loopback",
                   "wall_clock_s": round(on_t, 3),
                   "per_request_ms": round(on_t / requests * 1e3, 3),
                   "session_s": rounded(on_s)},
            "off": {"label": "telemetry=False, the same requests: no "
                             "exporter, no per-request accounting",
                    "wall_clock_s": round(off_t, 3),
                    "per_request_ms": round(off_t / requests * 1e3, 3),
                    "session_s": rounded(off_s)},
            "scrape": {"label": "GET /metrics round-trip on a telemetry "
                                "gateway (informational)",
                       "mean_ms": round(scrape_s * 1e3, 3),
                       "samples_per_scrape":
                           len(parse_exposition(text).samples),
                       "exposition_bytes": len(text)},
        },
        "acceptance": {
            "criterion": f"on/off - 1 <= {MAX_TELEMETRY_OVERHEAD:.0%} on "
                         f"the pooled totals (a --quick run is below the "
                         f"noise floor and not enforced)",
            "telemetry_on_overhead": round(ratio, 4),
            "pass": ratio <= MAX_TELEMETRY_OVERHEAD,
            "enforced": not quick,
        },
    }


def recovery(quick):
    """Boot a gateway against a stored queued backlog whose points are
    cache-resident; time start -> every job terminal."""
    backlog = 200 if quick else 1000
    distinct = 8
    with tempfile.TemporaryDirectory(prefix="repro_bench_") as tmp:
        db = os.path.join(tmp, "recover.sqlite")
        cache_dir = os.path.join(tmp, "cache")
        seeds = [7000 + i for i in range(distinct)]
        prewarm(cache_dir, seeds)
        config = scaled_config(GATEWAY_SETTINGS.capacity_factor)
        with JobStore.open(db) as store:
            for i in range(backlog):
                seed = seeds[i % distinct]
                points = grid_points(config, GATEWAY_SETTINGS, *GATEWAY_GRID,
                                     [seed])
                store.create_job(
                    {"architectures": GATEWAY_GRID[0],
                     "workloads": GATEWAY_GRID[1], "seeds": [seed],
                     "settings": SETTINGS_WIRE}, 0, None,
                    [(p.key, p.name, p.workload, p.seed) for p in points])
        start = time.perf_counter()
        with gateway(db, cache_dir) as handle:
            with GatewayClient(handle.base_url) as client:
                while True:
                    status = client.status()
                    done = status["store"]["jobs"].get("done", 0)
                    if not status["recovering"] and done >= backlog:
                        break
                    assert time.perf_counter() - start < 600, \
                        f"recovery stalled: {status['store']}"
                    time.sleep(0.05)
                elapsed = time.perf_counter() - start
                recovered = status["gateway"]["recovered"]
    assert recovered == backlog, (recovered, backlog)
    print(f"recovery: {backlog} jobs in {elapsed:.2f}s", flush=True)
    return {
        "settings": {"architectures": GATEWAY_GRID[0],
                     "workloads": GATEWAY_GRID[1],
                     "refs_per_core": GATEWAY_SETTINGS.refs_per_core,
                     "backlog_jobs": backlog, "distinct_grids": distinct},
        "passes": {
            "store_recovery": {
                "label": "gateway start against a queued backlog, all "
                         "points cache-resident: boot, store scan, "
                         "re-admission and cache-hit completion, until "
                         "every job is done (status polled every 50 ms)",
                "recovery_wall_s": round(elapsed, 3),
                "jobs_per_s": round(backlog / elapsed, 1),
            },
        },
        "acceptance": {
            "criterion": "every stored job recovered (asserted)",
            "recovered": recovered,
            "pass": True,
            "enforced": True,
        },
    }


# -- observer scenarios --------------------------------------------------------

def observer_passes(arms, labels, rounds, base):
    """Interleave the arms and report each one's minimum, with its
    overhead against the ``base`` arm."""
    times = interleave(arms, rounds)
    best = {name: min(seconds) for name, seconds in times.items()}
    passes = {}
    for name, _ in arms:
        passes[name] = {"label": labels[name],
                        "wall_clock_s": round(best[name], 3),
                        "rounds_s": rounded(times[name])}
        if name != base:
            passes[name]["overhead_vs_" + base] = round(
                best[name] / best[base] - 1.0, 4)
    return passes


UNBOUNDED = {
    "criterion": "none: overheads are reported, not bounded. The <= 2% "
                 "disabled-path budget is shown as interleaved "
                 "parent-vs-change perfbench pairs (docs/performance.md)",
    "pass": None,
    "enforced": False,
}


def tracing(quick):
    """Cold serial grid with tracing off, on and sampled."""
    archs, workloads = ["shared", "esp-nuca"], ["apache", "CG"]
    settings = RunSettings(refs_per_core=1_000 if quick else 4_000,
                           warmup_refs_per_core=250 if quick else 1_000,
                           num_seeds=1)
    rounds = 2 if quick else 3
    events = {}

    def arm(name, tracer_kwargs):
        def run():
            if tracer_kwargs is None:
                return timed_grid(settings, archs, workloads)[0]
            tracer = Tracer(**tracer_kwargs)
            with activated(tracer):
                elapsed = timed_grid(settings, archs, workloads)[0]
            events[name] = tracer.emitted
            return elapsed
        return run

    arms = [("off", arm("off", None)), ("on", arm("on", {})),
            ("sampled", arm("sampled", {"sample": 100}))]
    passes = observer_passes(arms, {
        "off": "null tracer: serial grid, run cache off; traces "
               "memoized from the first round on, so the minimum is "
               "simulation",
        "on": "the same grid, full capture: default categories, "
              "sample=1; a live tracer runs the reference schedule "
              "(docs/engine.md, Fallback), so this includes the engine "
              "difference",
        "sampled": "the same grid, long-capture configuration: "
                   "sample=100; reference schedule, as for on",
    }, rounds, "off")
    for name, count in events.items():
        passes[name]["events_emitted"] = count
    print(f"tracing: on {passes['on']['overhead_vs_off']:+.1%}, sampled "
          f"{passes['sampled']['overhead_vs_off']:+.1%}", flush=True)
    return {"settings": grid_settings(settings, archs, workloads,
                                      rounds=rounds,
                                      timing="minimum over rounds, arms "
                                             "interleaved"),
            "passes": passes, "acceptance": dict(UNBOUNDED)}


def checks(quick):
    """One reduced point with invariant checking off, sparse and full.
    A full sweep after every access costs milliseconds, so the point is
    one architecture and one short trace."""
    archs, workloads = ["esp-nuca"], ["apache"]
    settings = RunSettings(refs_per_core=250 if quick else 1_000,
                           warmup_refs_per_core=60 if quick else 250,
                           num_seeds=1)
    rounds = 1 if quick else 2
    base = scaled_config(settings.capacity_factor)

    def arm(sample):
        config = (None if sample is None else
                  replace(base, checks=CheckConfig(enabled=True,
                                                   sample=sample)))
        return lambda: timed_grid(settings, archs, workloads,
                                  config=config)[0]

    arms = [("off", arm(None)), ("sparse", arm(64)), ("full", arm(1))]
    passes = observer_passes(arms, {
        "off": "checking disabled (the default): one 'checker is None' "
               "test per access; serial, run cache off",
        "sparse": "the same point, sample=64: a full-state sweep every "
                  "64 accesses; a checker runs the reference schedule "
                  "(docs/engine.md, Fallback), so this includes the "
                  "engine difference",
        "full": "the same point, sample=1: a full-state sweep after "
                "every access; reference schedule, as for sparse",
    }, rounds, "off")
    print(f"checks: sample=64 {passes['sparse']['overhead_vs_off']:+.1%}, "
          f"sample=1 {passes['full']['overhead_vs_off']:+.1%}", flush=True)
    return {"settings": grid_settings(settings, archs, workloads,
                                      rounds=rounds,
                                      timing="minimum over rounds, arms "
                                             "interleaved"),
            "passes": passes, "acceptance": dict(UNBOUNDED)}


#: Run order. The gateway scenarios go first: the telemetry A/B is a
#: 2 % question, and the simulation scenarios leave a large, fragmented
#: heap behind that allocation-heavier request handling may feel.
SCENARIOS = {"telemetry": telemetry, "recovery": recovery, "fabric": fabric,
             "engines": engines, "tracing": tracing, "checks": checks}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", action="append", choices=SCENARIOS,
                        help="scenario to run (repeatable; default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken scenarios for CI")
    parser.add_argument("--out", help="output file (default: the "
                        "committed BENCH.json, for a full run only)")
    args = parser.parse_args(argv)
    names = args.scenario or list(SCENARIOS)
    if args.out is None:
        if args.quick or set(names) != set(SCENARIOS):
            parser.error("a --quick or --scenario run needs --out; only a "
                         "full run of every scenario writes BENCH.json")
        args.out = os.path.join(os.path.dirname(__file__), "..",
                                "BENCH.json")
    scenarios = {name: SCENARIOS[name](args.quick) for name in names}
    out = os.path.abspath(args.out)
    write(out, {"schema": SCHEMA, "environment": environment(args.quick),
                "scenarios": scenarios})
    failed = [name for name, result in scenarios.items()
              if result["acceptance"]["enforced"]
              and not result["acceptance"]["pass"]]
    print(f"wrote {out}" + (f"; failed: {', '.join(failed)}"
                            if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
