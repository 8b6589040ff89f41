"""Shared plumbing for the benchmark workloads: the run context, the
result record, statistics, memory, provenance and set-up probes.

Nothing here imports the program under test at module level, so
``run.py`` can refuse to run (exit 2) in a checkout without ``src/``
before any import of ``repro`` is attempted.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


@dataclass
class Context:
    """Everything one benchmark run is parameterised by."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Scratch directory inside the checkout, removed when the run ends.
    tmp: str
    #: Reduced sizes for the self-test; never used by a measured run.
    tiny: bool = False


@dataclass
class Outcome:
    """What a workload reports: operation accounting, the correctness
    verdict, and its metrics by name (units come from BENCHMARK.json)."""

    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific figures printed on the detail line, by name:
    #: {"value", "unit", "samples"}. They are reported, not gated.
    detail: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: The traced run's SpanRecorder; its spans are written out when
    #: the run ends.
    recorder: Any = None

    def mismatch(self, what: str) -> None:
        """Record a correctness-gate failure; it also fails one op."""
        self.mismatches.append(what)
        self.failed += 1

    def describe(self, name: str, value: float, unit: str,
                 samples: int) -> None:
        self.detail[name] = {"value": value, "unit": unit,
                             "samples": samples}


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in load_benchmark()[kind]}


# -- statistics ----------------------------------------------------------------

def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def canonical(payload: Any) -> str:
    """Byte-stable JSON rendering used by every equality gate."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- memory ----------------------------------------------------------------------

def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of one process in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# -- provenance -------------------------------------------------------------------

def source_digest() -> str:
    """sha256 over the program's and the benchmark's source files: the
    code identity when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in (SRC, BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".sql", ".json")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance() -> Dict[str, Any]:
    """The facts a cross-run comparison must agree on (``compare.py``
    flags any difference instead of comparing silently)."""
    from repro.harness.runcache import CACHE_VERSION, cache_generation
    from repro.sim.vector.soa import HAS_NUMPY

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": HAS_NUMPY,
        "cache_version": CACHE_VERSION,
        "cache_generation": cache_generation(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "model_validation": "unvalidated against hardware: no "
                            "simulator-error figure is given",
    }


# -- set-up timing ------------------------------------------------------------------

def time_setup_probes(ctx: Context, count: int) -> List[float]:
    """Wall-clock of ``count`` fresh interpreters that import the program
    and perform the workload's set-up, then exit (``run.py
    --setup-probe``). Median-of-several is what ``setup_s`` reports."""
    samples = []
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", ctx.workload, "--seed", str(ctx.seed),
            "--seconds", "1", "--trace", "0", "--setup-probe"]
    if ctx.tiny:
        argv.append("--tiny")
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, env=child_env(ctx))
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(elapsed)
    return samples


def child_env(ctx: Context) -> Dict[str, str]:
    """Environment for processes the benchmark starts: the program on
    the path, scratch inside the checkout, no inherited REPRO_* knobs."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = ctx.tmp
    return env

