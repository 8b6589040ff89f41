"""Self-test of the benchmark at a tiny size (about a minute):

    python3 perfbench/selftest.py

Checks that

1. every workload, untraced and traced, prints every metric of
   BENCHMARK.json with its unit, its detail figures with units and
   sample counts, a provenance line, and a passing gate;
2. the correctness gate trips on a deliberately altered result, in each
   workload's comparison;
3. open-loop latency is measured from the due time: a stall of one
   request shows up in the latency of the requests queued behind it and
   in the generator's lateness;
4. perfbench/layers.json maps every per-layer metric exactly once;
5. a checkout without the program makes the benchmark fail without a
   result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (ROOT, SRC, Context, Outcome, canonical,  # noqa: E402
                    load_benchmark, metric_units)
import gateway_load  # noqa: E402
import hot_locality  # noqa: E402

RUN = os.path.join(HERE, "run.py")
PROVENANCE = {"nproc", "python", "numpy", "cache_version",
              "cache_generation", "commit", "source_sha256",
              "model_validation"}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_tiny(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_outputs() -> None:
    bench = load_benchmark()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run_tiny(workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}:\n"
                     f"{proc.stderr[-3000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            prov = json.loads(lines[-2]).get("provenance", {})
            detail = json.loads(lines[-3]).get("detail", {})
            if not detail or not all(
                    set(d) == {"value", "unit", "samples"} and d["value"] > 0
                    and d["samples"] >= 1 for d in detail.values()):
                fail(f"{workload}: malformed detail line {lines[-3][:300]}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                fail(f"{workload} trace={trace}: gate or accounting "
                     f"failed: {lines[-1][:300]}")
            if set(prov) != PROVENANCE:
                fail(f"{workload}: provenance keys {sorted(prov)}")
            units = metric_units("per_layer" if trace else "end_to_end")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                fail(f"{workload} trace={trace}: metrics/units differ: "
                     f"{sorted(set(got.items()) ^ set(units.items()))}")
            if not trace and not all(v["value"] > 0
                                     for v in result["metrics"].values()):
                fail(f"{workload}: an end-to-end metric reads 0")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_gates(tmp: str) -> None:
    # hot-locality: the vectorized runs return an altered result.
    real = hot_locality.simulate

    def altered(state, engine, rec=None):
        result = real(state, engine, rec)
        if engine == "vectorized":
            result.l2_hits += 1
        return result

    ctx = Context("hot-locality", 3, 0.2, False, tmp, tiny=True)
    state = hot_locality.setup(ctx)
    hot_locality.simulate = altered
    try:
        outcome = Outcome()
        hot_locality.measure(ctx, state, outcome)
    finally:
        hot_locality.simulate = real
    if not outcome.mismatches or outcome.failed < outcome.attempted:
        fail("hot-locality gate did not trip on altered results")
    print(f"ok  hot-locality gate tripped ({outcome.failed} failed)")

    # cold-grid and gateway: their comparisons against an oracle.
    import cold_grid

    ctx = Context("cold-grid", 3, 0.1, False, tmp, tiny=True)
    state = cold_grid.setup(ctx)
    passes = cold_grid._passes(ctx, state["points"],
                               cold_grid._fresh_dir(ctx, "gate-cache"))
    oracle = [canonical(r.to_dict()) for r in passes["cold"]]
    clean = Outcome()
    cold_grid._gate("clean", passes, oracle, clean)
    passes["cold"][0].offchip_demand += 1
    broken = Outcome()
    cold_grid._gate("altered", passes, oracle, broken)
    if clean.mismatches or len(broken.mismatches) < 2:
        fail(f"cold-grid gate: clean {clean.mismatches}, altered "
             f"{broken.mismatches}")
    print(f"ok  cold-grid gate tripped ({len(broken.mismatches)} "
          f"mismatches: the point and every warm pass)")

    grid = {"architectures": ["esp-nuca"], "workloads": ["apache"],
            "seeds": [1]}
    payload = {"l2_hits": 5, "stats": {"noc": {"flits": 9}}}
    oracle_map = {canonical(grid): [canonical(payload)]}
    altered_payload = json.loads(json.dumps(payload))
    altered_payload["stats"]["noc"]["flits"] += 1
    outcome = Outcome()
    gateway_load._gate("clean", [(grid, [payload])], oracle_map, outcome)
    gateway_load._gate("altered", [(grid, [altered_payload])], oracle_map,
                       outcome)
    if outcome.mismatches != ["altered: job 0 results differ from a direct "
                              "Executor run"]:
        fail(f"gateway gate: {outcome.mismatches}")
    print("ok  gateway gate tripped")


def check_open_loop() -> None:
    stall_s, gap_s, stalled = 0.3, 0.01, 4

    def send(i, k):
        if i == stalled:
            time.sleep(stall_s)
        return i

    offsets = [i * gap_s for i in range(40)]
    load = gateway_load.open_loop(offsets, send, connections=2)
    latency_ms = [(e - d) * 1e3 for e, d in zip(load.end, load.due)]
    behind = stalled + 2  # the next request on the stalled connection
    expect = (stall_s - (offsets[behind] - offsets[stalled])) * 1e3
    if latency_ms[behind] < 0.9 * expect:
        fail(f"request behind the stall: latency {latency_ms[behind]:.1f} "
             f"ms, expected >= {expect:.1f} ms from its due time")
    if load.late_ms_max() < 0.9 * expect:
        fail(f"loadgen.late_ms_max {load.late_ms_max():.1f} ms misses a "
             f"{stall_s * 1e3:.0f} ms stall")
    if max(latency_ms[i] for i in range(1, 40, 2)) > 100:
        fail("the other connection was held up by the stall")
    print(f"ok  open-loop stall: latency {latency_ms[behind]:.0f} ms, "
          f"late_ms_max {load.late_ms_max():.0f} ms")


def check_layers_map() -> None:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    bench = load_benchmark()
    mapped = [m for layer in layers for m in layer["metrics"]]
    names = [m["name"] for m in bench["per_layer"]]
    if sorted(mapped) != sorted(names) or len(set(mapped)) != len(mapped):
        fail(f"layers.json vs BENCHMARK.json per_layer: "
             f"{sorted(set(mapped) ^ set(names))}")
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for layer in layers:
        for move in layer["moves"]:
            if move["metric"] not in e2e or move["workload"] not in workloads:
                fail(f"layers.json: unknown target {move}")
        if not set(layer["measured_on"]) <= workloads:
            fail(f"layers.json: unknown workload in {layer['layer']}")
    print(f"ok  layers.json maps {len(mapped)} per-layer metrics")


def check_without_program(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"a checkout without src/ did not fail cleanly: "
             f"{proc.returncode} {proc.stdout!r}")
    print(f"ok  without the program: exit {proc.returncode}, no result")


def main() -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail("run the self-test from a full checkout")
    sys.path.insert(0, SRC)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        check_layers_map()
        check_open_loop()
        check_gates(tmp)
        check_without_program(tmp)
        check_outputs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
