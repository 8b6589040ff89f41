"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cold-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json;
``--trace 1`` measures them untraced, then again with the benchmark's
span wrappers around each layer, and prints the per-layer metrics plus
the tracing overhead. Every run gates its outputs for correctness
against the program's oracle. The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the run's provenance, and the one before that the
workload's own figures (``detail``: its named latencies and times with
their units and sample counts, reported but not gated). Spans of a traced run are written
to ``.perfbench_out/`` when it ends. Scratch files live in
``.perfbench_tmp/`` inside the checkout and are removed at exit.

Exit codes: 0 with a result; 1 when the run failed (no result is
printed, e.g. an over-rate gateway run); 2 when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (ROOT, SRC, Context, Outcome, load_benchmark,  # noqa: E402
                    metric_units, provenance)

WORKLOADS = {"cold-grid": "cold_grid", "hot-locality": "hot_locality",
             "gateway": "gateway_load"}
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and set up only, then exit (set-up "
                             "timing runs this in fresh interpreters)")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; not a measurement")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def build_result(ctx: Context, outcome: Outcome) -> dict:
    """The result line. Every metric of the run's kind must be present
    with its unit; a per-layer metric a workload cannot observe is 0
    (perfbench/layers.json says why), a name BENCHMARK.json does not
    know is an error."""
    kind = "per_layer" if ctx.trace else "end_to_end"
    units = metric_units(kind)
    wanted = {name: value for name, value in outcome.metrics.items()
              if name in units}
    if ctx.trace:
        unknown = set(outcome.metrics) - set(units) - set(
            metric_units("end_to_end"))
        if unknown:
            raise RuntimeError(f"metrics unknown to BENCHMARK.json: "
                               f"{sorted(unknown)}")
        for name in units:
            wanted.setdefault(name, 0.0)
    missing = set(units) - set(wanted)
    if missing:
        raise RuntimeError(f"{ctx.workload} did not measure {sorted(missing)}")
    return {
        "correct": not outcome.mismatches,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(wanted[name]), "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds: the gateway child is stopped and
    # scratch is removed by the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    load_benchmark()
    # Hermetic: no inherited REPRO_* knob may change what is measured.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace), tmp=tmp,
                  tiny=args.tiny)
    try:
        module = __import__(WORKLOADS[args.workload])
        state = module.setup(ctx)
        if args.setup_probe:
            return 0
        outcome = Outcome()
        module.measure(ctx, state, outcome)
        result = build_result(ctx, outcome)
        if outcome.recorder is not None:
            os.makedirs(OUT_DIR, exist_ok=True)
            outcome.recorder.dump(os.path.join(
                OUT_DIR, f"{args.workload}-s{args.seed}.spans.json"))
        for what in outcome.mismatches:
            print(f"correctness gate: {what}", file=sys.stderr)
        print(json.dumps({"detail": outcome.detail}))
        print(json.dumps({"provenance": provenance()}))
        print(json.dumps(result), flush=True)
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
