"""Compare two sets of benchmark runs, e.g. a parent commit and a change:

    python3 perfbench/compare.py parent.out change.out

Each file holds the captured stdout of one or more ``run.py`` runs of
one workload (a provenance line followed by a result line, per run).
Prints each metric's median on both sides and the change's ratio, and
whether it is worse than the parent by more than BENCHMARK.json's bound.
Runs whose host or cache provenance differs (CPU count, Python, numpy,
run-cache generation) are not comparable: the difference is flagged and
the exit code is 3. The code identity (commit, source digest) is
expected to differ and is only printed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

from common import load_benchmark

HOST_KEYS = ("nproc", "python", "numpy", "cache_generation")


def read_runs(path: str) -> Tuple[List[dict], List[dict]]:
    provenance, results = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "provenance" in obj:
                provenance.append(obj["provenance"])
            elif "metrics" in obj:
                results.append(obj)
    if not results:
        raise SystemExit(f"{path}: no result lines")
    return provenance, results


def medians(results: List[dict]) -> Dict[str, float]:
    names = results[0]["metrics"]
    return {n: statistics.median(r["metrics"][n]["value"] for r in results)
            for n in names}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (prov_a, runs_a), (prov_b, runs_b) = read_runs(argv[0]), read_runs(argv[1])
    status = 0
    hosts = {tuple(p.get(k) for k in HOST_KEYS) for p in prov_a + prov_b}
    if len(hosts) > 1:
        print(f"PROVENANCE DIFFERS ({', '.join(HOST_KEYS)}): "
              f"{sorted(hosts, key=str)} -- not comparable")
        status = 3
    for side, prov in (("A", prov_a), ("B", prov_b)):
        codes = sorted({(p.get("commit"), p.get("source_sha256"))
                        for p in prov}, key=str)
        print(f"{side}: {len(prov)} run(s), code {codes}")
    bench = load_benchmark()
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    med_a, med_b = medians(runs_a), medians(runs_b)
    for name in med_a:
        a, b = med_a[name], med_b.get(name)
        if b is None:
            continue
        meta = spec.get(name, {})
        ratio = b / a if a else float("nan")
        worse = (ratio - 1 if meta.get("better") == "lower" else 1 - ratio)
        bound = meta.get("bound")
        verdict = ("" if bound is None else
                   "  REGRESSED" if worse > bound else "  within bound")
        print(f"{name:40s} {a:14.4f} -> {b:14.4f} {meta.get('unit', ''):8s}"
              f" x{ratio:.3f}{verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
