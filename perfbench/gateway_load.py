"""gateway: an open-loop request mix against ``esp-nuca gateway serve``.

The gateway runs as its own process with ``--workers 2``, a fresh
SQLite store, a fresh run cache and two real tenants with API keys
minted by ``esp-nuca gateway add-tenant``. Set-up submits a few small
grids once, so they are cache-resident. The generator then sends
requests on a fixed schedule over two keep-alive connections:

* reads (19 of every 20): one of the resident grids, answered inline
  from the run cache (admission, run-cache get, results in the reply);
* writes (1 of every 20): a fresh two-point grid, never seen before
  (admission, queue, simulation on the fabric, run-cache put, result
  rows, terminal job row). Two points, because the executor simulates
  a one-point batch in the gateway process instead of on the fabric.

Every latency is timed from the request's due time, so a stall of the
generator or the gateway charges every request queued behind it: a
request's latency ends at its reply, a write's done latency at its
terminal state, read afterwards from the job listing's ``updated_at``
(no per-job polling during the window). After the window, batches of
fresh grids measure simulation throughput through the gateway and its
two fabric workers.

Why: the HTTP, auth, service queue, fabric, run-cache and job-store
layers do all of this work and none of cold-grid's; reads next to
writes show a gain on one that costs the other.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import (Context, Outcome, canonical, child_env, median,
                    peak_rss_mb, percentile)
from spans import SpanRecorder

#: Offered load (requests/s) and its write share: 1 in FRESH_EVERY.
#: Well below saturation on a 2-CPU host, so the backlog stays flat.
RATE = 30.0
FRESH_EVERY = 20
CONNECTIONS = 2
WORKERS = 2
SETTINGS = {"refs_per_core": 300, "warmup_refs_per_core": 100,
            "capacity_factor": 8}
#: Writes are cheaper points, so the share of time both fabric workers
#: simulate (and contend with the gateway for the two CPUs) stays near
#: 4%, well clear of the 10% tail the gated p90 sits on.
WRITE_SETTINGS = {"refs_per_core": 100, "warmup_refs_per_core": 50,
                  "capacity_factor": 8}
READ_ARCHS = ["esp-nuca", "shared"]
READ_WORKLOADS = ["apache", "oltp", "CG", "art-4"]
READ_GRIDS = 8
WRITE_ARCHS, WRITE_WORKLOAD = ["esp-nuca", "shared"], "apache"
BATCH_ARCHS = ["shared", "private", "d-nuca", "asr", "esp-nuca"]
BATCH_WORKLOADS = ["apache", "oltp", "CG", "art-4"]
BATCHES = 5
SPAWNS = 3
TERMINAL = ("done", "failed", "cancelled")
REJECT_REASONS = ("auth", "bad_request", "quota_jobs", "quota_points",
                  "rate_limited", "queue_full", "draining", "not_found")


# -- the open-loop generator ----------------------------------------------------

@dataclass
class LoadRun:
    """Per-request timings on the perf_counter clock, plus the wall
    clock of the schedule's origin (to compare with store times)."""

    due: List[float]
    start: List[float]
    end: List[float]
    outcome: List[Any]
    ok: List[bool]
    wall_origin: float
    origin: float

    def late_ms_max(self) -> float:
        return max((s - d) * 1e3 for s, d in zip(self.start, self.due))

    def due_wall(self, i: int) -> float:
        return self.wall_origin + (self.due[i] - self.origin)


def open_loop(offsets: Sequence[float], send: Callable[[int, int], Any],
              connections: int = CONNECTIONS) -> LoadRun:
    """Send request ``i`` no earlier than ``offsets[i]`` seconds after
    the origin. Connection ``k`` carries requests ``i % connections ==
    k`` in order, so a slow reply delays that connection's later
    requests, and their latency, measured from the due time, shows it.
    ``send(i, k)`` returns the reply or raises; a raise is a failure."""
    n = len(offsets)
    start = [0.0] * n
    end = [0.0] * n
    outcome: List[Any] = [None] * n
    ok = [False] * n
    origin = time.perf_counter() + 0.05
    wall_origin = time.time() + (origin - time.perf_counter())

    def worker(k: int) -> None:
        for i in range(k, n, connections):
            delay = origin + offsets[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            start[i] = time.perf_counter()
            try:
                outcome[i] = send(i, k)
                ok[i] = True
            except Exception as exc:  # counted as a failed request
                outcome[i] = exc
            end[i] = time.perf_counter()

    threads = [threading.Thread(target=worker, args=(k,), daemon=True)
               for k in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return LoadRun([origin + o for o in offsets], start, end, outcome, ok,
                   wall_origin, origin)


# -- the gateway process ----------------------------------------------------------

def _cli(ctx: Context, *argv: str) -> str:
    proc = subprocess.run([sys.executable, "-m", "repro.harness.cli", *argv],
                          env=child_env(ctx), capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"esp-nuca {' '.join(argv)} exited "
                           f"{proc.returncode}: {proc.stderr}")
    return proc.stdout


def _mint(ctx: Context, db: str, tenant: str) -> str:
    out = _cli(ctx, "gateway", "add-tenant", "--db", db, "--tenant", tenant,
               "--max-jobs", "1000", "--max-points", "8192",
               "--rate-capacity", "100000", "--rate-refill", "100000")
    for line in out.splitlines():
        if line.startswith("api key"):
            return line.split(": ", 1)[1].strip()
    raise RuntimeError(f"add-tenant printed no key: {out!r}")


def tenant_store(ctx: Context) -> Tuple[str, Dict[str, str]]:
    """A migrated store holding the two tenants, and their API keys.
    Each gateway spawn starts from its own copy of it."""
    db = os.path.join(ctx.tmp, "tenants.sqlite")
    return db, {t: _mint(ctx, db, t) for t in ("reads", "writes")}


class GatewayProcess:
    """One ``esp-nuca gateway serve`` child with its own store and cache."""

    def __init__(self, ctx: Context, name: str, template: str,
                 keys: Dict[str, str]) -> None:
        self.dir = os.path.join(ctx.tmp, name)
        os.makedirs(self.dir)
        self.db = os.path.join(self.dir, "gateway.sqlite")
        shutil.copyfile(template, self.db)
        self.keys = keys
        env = child_env(ctx)
        env["REPRO_CACHE_DIR"] = os.path.join(self.dir, "cache")
        self._log = open(os.path.join(self.dir, "gateway.log"), "wb")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "gateway", "serve",
             "--db", self.db, "--http", "127.0.0.1:0",
             "--workers", str(WORKERS)],
            env=env, stdout=subprocess.PIPE, stderr=self._log, text=True)
        self.url = self._await_url()
        self._await_ready()
        #: Spawn to the first ``/readyz`` 200.
        self.setup_s = time.perf_counter() - began

    def _await_url(self) -> str:
        line = self.proc.stdout.readline()
        marker = "listening on "
        if marker not in line:
            self.stop()
            raise RuntimeError(f"gateway did not start: {line!r}")
        return line.split(marker, 1)[1].split()[0]

    def _await_ready(self, timeout: float = 60.0) -> None:
        from repro.gateway.client import GatewayClient

        deadline = time.monotonic() + timeout
        with GatewayClient(self.url) as client:
            while not client.readyz().get("ready"):
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    self.stop()
                    raise RuntimeError("gateway never became ready")
                time.sleep(0.005)

    def client(self, tenant: str):
        from repro.gateway.client import GatewayClient

        return GatewayClient(self.url, api_key=self.keys[tenant])

    def peak_rss_mb(self, worker_pids: Sequence[int]) -> float:
        return sum(peak_rss_mb(pid) for pid in [self.proc.pid, *worker_pids])

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill only if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


# -- the workload -------------------------------------------------------------------

def _grid(archs, workloads, seed: int,
          settings: Dict[str, int] = SETTINGS) -> Dict[str, Any]:
    return {"architectures": list(archs), "workloads": list(workloads),
            "seeds": [seed], "settings": settings}


def read_grids(seed: int, count: int) -> List[Dict[str, Any]]:
    return [_grid(READ_ARCHS, [READ_WORKLOADS[i % len(READ_WORKLOADS)]],
                  10_000 * seed + i) for i in range(count)]


def _submit(client, grid: Dict[str, Any]) -> Dict[str, Any]:
    return client.submit(grid["architectures"], grid["workloads"],
                         seeds=grid["seeds"], settings=grid["settings"])


def _start(ctx: Context, state: Dict[str, Any], name: str
           ) -> GatewayProcess:
    """Spawn one gateway and make the read grids resident."""
    gateway = GatewayProcess(ctx, name, state["template"], state["keys"])
    try:
        with gateway.client("reads") as client:
            for grid in state["grids"]:
                client.wait(_submit(client, grid)["job"], timeout=120,
                            poll=0.02)
    except BaseException:
        gateway.stop()
        raise
    return gateway


def setup(ctx: Context) -> Dict[str, Any]:
    """Spawn the gateway several times (set-up time is the median of
    spawn-to-ready) and keep the last one, read grids resident."""
    template, keys = tenant_store(ctx)
    state = {"template": template, "keys": keys,
             "grids": read_grids(ctx.seed, 2 if ctx.tiny else READ_GRIDS)}
    spawn_s = []
    for n in range(0 if ctx.tiny else SPAWNS - 1):
        gateway = GatewayProcess(ctx, f"spawn{n}", template, keys)
        spawn_s.append(gateway.setup_s)
        gateway.stop()
    state["gateway"] = _start(ctx, state, "gateway")
    spawn_s.append(state["gateway"].setup_s)
    state["setup_s"] = median(spawn_s)
    return state


@dataclass
class Window:
    """One open-loop window's requests and what became of them."""

    kinds: List[str]
    grids: List[Dict[str, Any]]
    load: LoadRun
    #: Write job ids by request index, and their terminal rows.
    jobs: Dict[int, str]
    rows: Dict[str, Dict[str, Any]]
    results: Dict[int, List[Dict[str, Any]]]


def _schedule(ctx: Context, reads: List[Dict[str, Any]]
              ) -> Tuple[List[float], List[str], List[Dict[str, Any]]]:
    rate = 20.0 if ctx.tiny else RATE
    count = max(FRESH_EVERY, int(rate * ctx.seconds))
    rng = random.Random(f"gateway-{ctx.seed}")
    offsets, kinds, grids = [], [], []
    for i in range(count):
        offsets.append(i / rate)
        if i % FRESH_EVERY == FRESH_EVERY - 1:
            kinds.append("write")
            grids.append(_grid(WRITE_ARCHS, [WRITE_WORKLOAD],
                               10_000_000 + 10_000 * ctx.seed + i,
                               WRITE_SETTINGS))
        else:
            kinds.append("read")
            grids.append(reads[rng.randrange(len(reads))])
    return offsets, kinds, grids


def _run_window(ctx: Context, gateway: GatewayProcess,
                reads: List[Dict[str, Any]],
                rec: Optional[SpanRecorder] = None) -> Window:
    offsets, kinds, grids = _schedule(ctx, reads)
    # One keep-alive connection per sender; each request carries the
    # key of the tenant it belongs to.
    keys = {"read": gateway.keys["reads"], "write": gateway.keys["writes"]}
    clients = [gateway.client("reads") for _ in range(CONNECTIONS)]

    def send(i: int, k: int) -> Dict[str, Any]:
        client = clients[k]
        client.api_key = keys[kinds[i]]
        return _submit(client, grids[i])

    if rec is not None:
        send = rec.wrap("gateway.submit", send, keep=True,
                        request_of=lambda i, k: f"r{i}")
    try:
        load = open_loop(offsets, send)
    finally:
        for client in clients:
            client.close()
    jobs = {i: load.outcome[i]["job"] for i, kind in enumerate(kinds)
            if kind == "write" and load.ok[i]}
    return Window(kinds, grids, load, jobs, {}, {})


def _finish_window(gateway: GatewayProcess, win: Window,
                   rec: Optional[SpanRecorder] = None) -> None:
    """After the window: wait until every write is terminal, then read
    the terminal rows (``updated_at``) and fetch their results."""
    wanted = set(win.jobs.values())
    with gateway.client("writes") as client:
        listing = client.jobs
        results = client.results
        if rec is not None:
            listing = rec.wrap("gateway.list", listing, keep=True)
            results = rec.wrap("gateway.results", results, keep=True,
                               request_of=lambda job: job)
        deadline = time.monotonic() + 120
        while True:
            rows = {row["job"]: row for row in listing(limit=1000)
                    if row["job"] in wanted}
            if all(rows.get(job, {}).get("state") in TERMINAL
                   for job in wanted):
                break
            if time.monotonic() > deadline:
                raise RuntimeError("writes did not finish within 120 s")
            time.sleep(0.2)
        # The terminal row is written just after the job ends; list once
        # more so every updated_at is the stored terminal time.
        time.sleep(0.2)
        win.rows = {row["job"]: row for row in listing(limit=1000)
                    if row["job"] in wanted}
        for i, job in win.jobs.items():
            if win.rows[job]["state"] == "done":
                win.results[i] = results(job)["results"]


def _backlog_grows(win: Window) -> bool:
    """Over-rate test: writes outstanding (due, not yet terminal) late
    in the window against early in it, and the generator's lateness."""
    load = win.load
    span = load.due[-1] - load.due[0]
    intervals = [(load.due_wall(i), win.rows[job]["updated_at"])
                 for i, job in win.jobs.items() if job in win.rows]

    def outstanding(lo: float, hi: float) -> float:
        points = [load.wall_origin + span * (lo + (hi - lo) * s / 50)
                  for s in range(50)]
        return sum(sum(1 for due, done in intervals if due <= t < done)
                   for t in points) / len(points)

    def lateness(lo: float, hi: float) -> float:
        idx = [i for i in range(len(load.due))
               if lo * span <= load.due[i] - load.origin < hi * span]
        return median([load.start[i] - load.due[i] for i in idx])

    queue_grows = outstanding(0.75, 1.0) > 2 * outstanding(0.0, 0.25) + 2
    generator_lags = lateness(0.75, 1.0) > 2 * lateness(0.0, 0.25) + 0.05
    return queue_grows or generator_lags


def _window_metrics(win: Window, outcome: Outcome,
                    describe: bool = True) -> float:
    """Submit latency (due time to reply) over every request, and done
    latency (due time to terminal row) over the writes. A failed or
    refused request counts as an infinite latency, so it misses every
    limit. Returns the submit p90; with ``describe`` the p50/p90/p99 of
    both go on the detail line."""
    load = win.load
    submit: List[float] = []
    done: List[float] = []
    inf = float("inf")
    for i, kind in enumerate(win.kinds):
        outcome.attempted += 1
        reply = load.outcome[i]
        answered = load.ok[i] and (kind == "write"
                                   or reply.get("state") == "done")
        submit.append((load.end[i] - load.due[i]) * 1e3 if answered
                      else inf)
        if kind == "write":
            row = win.rows.get(win.jobs.get(i))
            finished = row is not None and row["state"] == "done"
            done.append((row["updated_at"] - load.due_wall(i)) * 1e3
                        if finished else inf)
            answered = answered and finished
        if not answered:
            outcome.failed += 1
    p90 = percentile(submit, 0.90)
    if p90 == inf:
        raise RuntimeError(f"refused or failed requests reach the p90 "
                           f"({outcome.failed} failed): the offered rate "
                           f"is too high for this host")
    if describe:
        for name, values, fractions in (("submit_ms", submit,
                                         (0.5, 0.9, 0.99)),
                                        ("done_ms", done, (0.5, 0.9))):
            for fraction in fractions:
                suffix = "" if fraction == 0.5 else f"_p{round(fraction * 100)}"
                value = percentile(values, fraction)
                # JSON has no infinity: a percentile a failure reaches
                # is reported as null (the failures are counted).
                outcome.describe(name + suffix,
                                 value if value != inf else None, "ms",
                                 len(values))
    return p90


def _batches(ctx: Context, gateway: GatewayProcess
             ) -> Tuple[float, List[Tuple[Dict[str, Any], List]]]:
    """Fresh grids submitted whole, each timed from submit to the end
    of its progress stream: simulation throughput through the gateway
    and its fabric. Returns (refs/s over all batches, [(grid, results)])."""
    refs, seconds, fetched = 0, 0.0, []
    count = 1 if ctx.tiny else BATCHES
    with gateway.client("writes") as client:
        for b in range(count):
            grid = _grid(BATCH_ARCHS[:2] if ctx.tiny else BATCH_ARCHS,
                         BATCH_WORKLOADS[:1] if ctx.tiny else BATCH_WORKLOADS,
                         20_000_000 + 10_000 * ctx.seed + b)
            start = time.perf_counter()
            job = _submit(client, grid)["job"]
            for _frame in client.events(job):
                pass
            seconds += time.perf_counter() - start
            results = client.results(job)["results"]
            fetched.append((grid, results))
            refs += sum(r["memory_accesses"] for r in results)
    return refs / seconds, fetched


def _scrape(gateway: GatewayProcess):
    from repro.obs.metrics import parse_exposition

    with gateway.client("reads") as client:
        return parse_exposition(client.metrics())


def _reference(grids: List[Dict[str, Any]]) -> Dict[str, List[str]]:
    """The oracle: a direct, uncached Executor run of every grid the
    gateway answered, keyed by the grid's canonical form."""
    from repro.common.config import scaled_config
    from repro.harness.executor import Executor
    from repro.harness.runcache import RunCache
    from repro.harness.runner import RunSettings, grid_points

    unique = {canonical(g): g for g in grids}
    slices, points = [], []
    for key, grid in unique.items():
        settings = RunSettings(**grid["settings"])
        grid_pts = grid_points(scaled_config(settings.capacity_factor),
                               settings, grid["architectures"],
                               grid["workloads"], grid["seeds"])
        slices.append((key, len(points), len(grid_pts)))
        points.extend(grid_pts)
    executor = Executor(jobs=WORKERS, cache=RunCache(enabled=False))
    try:
        # Through JSON first: the gateway's payloads are JSON, whose
        # object keys are strings (and sort differently from ints).
        payloads = [canonical(json.loads(json.dumps(r.to_dict())))
                    for r in executor.run(points)]
    finally:
        executor.close()
    return {key: payloads[at:at + n] for key, at, n in slices}


def _gate(label: str, answered: List[Tuple[Dict[str, Any], List]],
          oracle: Dict[str, List[str]], outcome: Outcome) -> None:
    for n, (grid, results) in enumerate(answered):
        if [canonical(r) for r in results] != oracle[canonical(grid)]:
            outcome.mismatch(f"{label}: job {n} results differ from a "
                             f"direct Executor run")


def _answered(win: Window) -> List[Tuple[Dict[str, Any], List]]:
    """(grid, results) of every job that returned results; the others
    already count as failed requests."""
    out = []
    for i, kind in enumerate(win.kinds):
        reply = win.load.outcome[i]
        if kind == "read" and win.load.ok[i] and reply.get("state") == "done":
            out.append((win.grids[i], reply["results"]))
        elif i in win.results:
            out.append((win.grids[i], win.results[i]))
    return out


def _layer_metrics(before, mid, after, win: Window) -> Dict[str, float]:
    """Per-layer counts from /metrics deltas: ``before`` the traced
    window, ``mid`` right after it, ``after`` once its writes were
    finished and their results fetched."""
    def d(name: str, a=before, b=after, **labels) -> float:
        return b.value(name, 0.0, **labels) - a.value(name, 0.0, **labels)

    def route_mean_us(route: str, a, b) -> float:
        count = d("espnuca_gateway_routes_latency_us_count", a, b,
                  route=route)
        total = d("espnuca_gateway_routes_latency_us_sum", a, b, route=route)
        return total / count if count else 0.0

    hits = d("espnuca_cache_hits_total")
    lookups = hits + d("espnuca_cache_misses_total")
    out = {
        "runcache.get.calls": lookups,
        "runcache.put.calls": d("espnuca_cache_writes_total"),
        "runcache.hit_ratio": hits / lookups if lookups else 0.0,
        "executed_points": d("espnuca_executed_points_total"),
        "fabric.dispatched": d("espnuca_fabric_dispatched_total"),
        "fabric.completed": d("espnuca_fabric_completed_total"),
        "fabric.requeued": d("espnuca_fabric_requeued_total"),
        "service.points_cached": d("espnuca_points_cached_total"),
        "service.points_enqueued": d("espnuca_points_enqueued_total"),
        "service.points_coalesced": d("espnuca_points_coalesced_total"),
        "service.queue_backlog_end": mid.value("espnuca_queue_backlog", 0.0),
        "gateway.route_us.v1_jobs": route_mean_us("v1_jobs", before, mid),
        "gateway.route_us.v1_jobs_id_results": route_mean_us(
            "v1_jobs_id_results", mid, after),
        "gateway.results_persisted": d(
            "espnuca_gateway_results_persisted_total"),
        "loadgen.sent": len(win.kinds),
        "loadgen.failed": sum(1 for ok in win.load.ok if not ok),
        "loadgen.late_ms_max": win.load.late_ms_max(),
    }
    for reason in REJECT_REASONS:
        out[f"gateway.rejects.{reason}"] = d("espnuca_gateway_rejects_total",
                                             reason=reason)
    return out


def measure(ctx: Context, state: Dict[str, Any], outcome: Outcome) -> None:
    gateway: GatewayProcess = state["gateway"]
    try:
        win = _run_window(ctx, gateway, state["grids"])
        _finish_window(gateway, win)
        if _backlog_grows(win):
            raise RuntimeError("over-rate: the write backlog or the "
                               "generator's lateness grew across the "
                               "window; the run is not reported")
        throughput, batches = _batches(ctx, gateway)
        with gateway.client("reads") as client:
            fabric = client.status().get("fabric") or {}
        rss = gateway.peak_rss_mb(fabric.get("alive", [])) + peak_rss_mb()
    finally:
        gateway.stop()
    traced = None
    if ctx.trace:
        # The same schedule again on a fresh gateway: submit cost grows
        # with the jobs a gateway holds, so a second window on the first
        # gateway would not compare with the untraced one.
        rec = SpanRecorder()
        fresh = _start(ctx, state, "traced")
        try:
            before = _scrape(fresh)
            traced = _run_window(ctx, fresh, state["grids"], rec)
            mid = _scrape(fresh)
            _finish_window(fresh, traced, rec)
            after = _scrape(fresh)
        finally:
            fresh.stop()

    windows = [("untraced", win)] + ([("traced", traced)] if traced else [])
    answered = {label: _answered(w) for label, w in windows}
    oracle = _reference([g for a in answered.values() for g, _ in a]
                        + [g for g, _ in batches])
    submit_p90 = _window_metrics(win, outcome)
    traced_p90 = (_window_metrics(traced, outcome, describe=False)
                  if traced else None)
    for label, pairs in answered.items():
        _gate(label, pairs, oracle, outcome)
    outcome.attempted += len(batches)
    _gate("batch", batches, oracle, outcome)
    outcome.metrics.update({
        "setup_s": state["setup_s"],
        "peak_rss_mb": rss,
        "sim_refs_per_s": throughput,
        "request_ms_p90": submit_p90,
    })
    outcome.describe("batch_refs_per_s", throughput, "refs/s", len(batches))
    if traced is None:
        return
    layers = _layer_metrics(before, mid, after, traced)
    layers["trace.overhead_pct"] = (traced_p90 / submit_p90 - 1) * 100
    outcome.metrics.update(layers)
    outcome.recorder = rec
