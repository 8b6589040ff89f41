"""CI smoke test for the HTTP gateway, end to end as an operator would
run it: migrate a fresh store, mint a tenant key via the CLI, boot the
real ``esp-nuca gateway serve`` in a subprocess, submit a backlog, and
then do the one thing in-process tests cannot — **SIGKILL the gateway
mid-backlog** and prove the system's durability story:

* the killed process leaves **zero orphaned simulation workers** (the
  fabric's parent-death watchdog);
* a restarted gateway on the same store recovers every non-terminal
  job, drives it to a terminal state, and every result is
  **byte-identical** to a direct in-process ``run_point`` execution of
  the same grid;
* per-tenant quota rejects (429 ``quota-jobs``) and token-bucket rate
  limiting (429 ``rate-limited`` with ``Retry-After``) are enforced on
  the wire, and an unauthenticated request is refused (401);
* an identical resubmission is answered from the persistent run cache
  (``points.executed`` unchanged, results byte-identical), and a
  ``trace: true`` submission exports a valid Chrome trace with spans
  from both clock domains (CI uploads it as a workflow artifact);
* ``/metrics`` scraped under load is valid Prometheus exposition whose
  counters are monotone across scrapes, and ``/readyz`` reports ready
  on a booted gateway but flips false while a SIGTERM drain is still
  finishing jobs.

Run locally with ``PYTHONPATH=src python tools/gateway_smoke.py``; the
in-process equivalents live in ``tests/test_gateway.py`` and
``tests/test_telemetry.py``.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.gateway.client import GatewayClient, GatewayError  # noqa: E402
from repro.obs.export import (events_of_category, span_names,  # noqa: E402
                              validate_chrome)
from repro.obs.metrics import (  # noqa: E402
    assert_counters_monotone, parse_exposition)

ARCHS = ["shared", "private", "esp-nuca"]
WORKLOADS = ["apache"]
SETTINGS = {"refs_per_core": 400, "warmup_refs_per_core": 100,
            "capacity_factor": 8, "num_seeds": 1}
#: The traced run gets a little more work so the capture reliably
#: contains helping-block events (replica/victim placements).
TRACE_SETTINGS = {"refs_per_core": 800, "warmup_refs_per_core": 200,
                  "capacity_factor": 8, "num_seeds": 1}
#: Distinct seed per job so every job is genuinely uncached work.
JOBS = 4
BOOT_TIMEOUT = 60
FINISH_TIMEOUT = 300


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def canonical(payloads):
    return json.dumps(payloads, sort_keys=True, separators=(",", ":"))


def check_trace(path):
    """A traced submission's export must be a valid Chrome trace with
    spans from both clock domains and a helping-block instant."""
    with open(path) as handle:
        payload = json.load(handle)
    problems = validate_chrome(payload)
    if problems:
        fail(f"trace {path} is not valid Chrome trace JSON: {problems[:5]}")
    if not [e for e in events_of_category(payload, "l2")
            if e.get("ph") == "X"]:
        fail("trace has no sim-clock L2 bank spans")
    if not any(name.startswith("run ") for name in span_names(payload)):
        fail("trace has no wall-clock executor run span")
    helping = [e["name"] for e in payload["traceEvents"]
               if e.get("ph") == "i" and e.get("name") in
               ("replica placed", "victim placed", "allocation refused")]
    if not helping:
        fail("trace has no helping-block instant (replica/victim/refusal)")
    service_names = {e["name"]
                     for e in events_of_category(payload, "service")}
    if "queue depth" not in service_names:
        fail(f"trace has no service queue-depth counter: {service_names}")
    return len(payload["traceEvents"])


def reference_results(seed):
    """The same grid, serial, in this process, no caches."""
    from repro.common.config import scaled_config
    from repro.harness.executor import Executor
    from repro.harness.runcache import RunCache
    from repro.harness.runner import RunSettings, grid_points

    settings = RunSettings(
        capacity_factor=SETTINGS["capacity_factor"],
        refs_per_core=SETTINGS["refs_per_core"],
        warmup_refs_per_core=SETTINGS["warmup_refs_per_core"],
        num_seeds=SETTINGS["num_seeds"])
    points = grid_points(scaled_config(settings.capacity_factor), settings,
                         ARCHS, WORKLOADS, [seed])
    executor = Executor(jobs=1, cache=RunCache(enabled=False))
    return [r.to_dict() for r in executor.run(points)]


def run_cli(env, *argv):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"CLI {' '.join(argv)} exited {proc.returncode}:\n"
             f"{proc.stdout}\n{proc.stderr}")
    return proc.stdout


def start_gateway(env, db, port):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.harness.cli", "gateway", "serve",
         "--db", db, "--http", f"127.0.0.1:{port}",
         "--workers", "2", "--service-workers", "2", "--batch", "3"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


def worker_pids(status):
    fabric = status.get("fabric") or {}
    return {int(pid) for pid in (fabric.get("completed_by_pid") or {})} | \
           {int(pid) for pid in (fabric.get("alive") or [])}


def main():
    workdir = tempfile.mkdtemp(prefix="esp-gateway-smoke-")
    db = os.path.join(workdir, "jobs.sqlite")
    port = 8123 + os.getpid() % 20000
    url = f"http://127.0.0.1:{port}"
    # CI points REPRO_TRACE_DIR into the workspace so the captured
    # trace can be uploaded as a workflow artifact.
    env = dict(os.environ,
               PYTHONPATH=os.path.join(REPO, "src"),
               REPRO_CACHE_DIR=os.path.join(workdir, "cache"),
               REPRO_TRACE_DIR=os.environ.get("REPRO_TRACE_DIR")
               or os.path.join(workdir, "traces"))
    env.pop("REPRO_JOBS", None)

    # Operator workflow: migrate, mint a tenant, list it back.
    out = run_cli(env, "gateway", "migrate", "--db", db)
    if "applied" not in out:
        fail(f"migrate applied nothing on a fresh store: {out!r}")
    def mint(name, *flags):
        out = run_cli(env, "gateway", "add-tenant", "--db", db,
                      "--tenant", name, *flags)
        key = next((line.split(": ", 1)[1].strip()
                    for line in out.splitlines()
                    if line.startswith("api key")), None)
        if not key or not key.startswith("esp_"):
            fail(f"add-tenant printed no api key: {out!r}")
        return key

    # Tight limits to assert the rejects; loose limits for the backlog.
    key = mint("smoke", "--max-jobs", "2", "--max-points", "64",
               "--rate-capacity", "3", "--rate-refill", "1")
    bulk_key = mint("bulk", "--max-jobs", "32", "--max-points", "1024",
                    "--rate-capacity", "100", "--rate-refill", "50")
    out = run_cli(env, "gateway", "list-tenants", "--db", db)
    if "smoke:" not in out or "bulk:" not in out:
        fail(f"list-tenants does not show the new tenants: {out!r}")

    server = start_gateway(env, db, port)
    submitted = {}
    killed_pids = set()
    try:
        client = GatewayClient.wait_until_ready(url, timeout=BOOT_TIMEOUT,
                                                proc=server, api_key=key)

        # -- telemetry: ready on boot, baseline scrape -----------------------
        ready = client.readyz()
        if not ready.get("ready") or not all(ready["checks"].values()):
            fail(f"/readyz not ready on a booted gateway: {ready}")
        scrape_before = parse_exposition(client.metrics())

        # -- auth is required ------------------------------------------------
        try:
            GatewayClient(url).status()
            fail("unauthenticated request was not rejected")
        except GatewayError as exc:
            if exc.status != 401:
                fail(f"expected 401 without a key, got {exc}")

        # -- rate limit: burst capacity 3, then a typed 429 ------------------
        hits = 0
        got_rate_reject = None
        for _ in range(10):
            try:
                client.submit(["esp-nuca"], WORKLOADS,
                              settings=SETTINGS, seeds=[7001])
                hits += 1
            except GatewayError as exc:
                if exc.code == "rate-limited":
                    got_rate_reject = exc
                    break
                if exc.code == "quota-jobs":
                    continue  # quota kicked in before the bucket drained
                raise
        if got_rate_reject is None:
            fail("10 rapid submissions never hit the rate limit "
                 f"(capacity 3, refill 1/s; {hits} admitted)")
        if not got_rate_reject.retry_after or got_rate_reject.retry_after < 1:
            fail(f"rate reject carries no Retry-After: {got_rate_reject}")

        # -- quota: at most 2 unfinished jobs --------------------------------
        time.sleep(3.5)  # refill the bucket so quota is what rejects
        got_quota_reject = False
        for i in range(4):
            try:
                client.submit(ARCHS, WORKLOADS, settings=SETTINGS,
                              seeds=[7100 + i])
            except GatewayError as exc:
                if exc.code == "quota-jobs":
                    got_quota_reject = True
                    break
                if exc.code == "rate-limited":
                    time.sleep(exc.retry_after or 1)
                    continue
                raise
        if not got_quota_reject:
            fail("4 concurrent submissions never hit the 2-job quota")

        # Let the smoke tenant's jobs finish so the kill test starts
        # from a quiet queue.
        for row in client.jobs():
            client.wait(row["job"], timeout=FINISH_TIMEOUT)

        # -- /metrics after load: parseable, monotone, fleet scopes ----------
        scrape_after = parse_exposition(client.metrics())
        assert_counters_monotone(scrape_before, scrape_after)
        for family in ("espnuca_queue_backlog", "espnuca_fabric_workers",
                       "espnuca_cache_hits_total", "espnuca_ready"):
            if not scrape_after.family(family):
                fail(f"/metrics is missing the {family} family")
        requests_name = "espnuca_gateway_http_requests_total"
        if (scrape_after.value(requests_name, default=0) <=
                scrape_before.value(requests_name, default=0)):
            fail("HTTP request counter did not grow between scrapes")
        if scrape_after.value("espnuca_gateway_tenants_requests_total",
                              default=0, tenant="smoke") <= 0:
            fail("per-tenant request counter missing for tenant 'smoke'")
        client.close()

        # -- cache fast path: an identical resubmission never executes -------
        bulk = GatewayClient(url, api_key=bulk_key)
        first = bulk.submit(ARCHS, WORKLOADS, settings=SETTINGS,
                            seeds=[7500])
        bulk.wait(first["job"], timeout=FINISH_TIMEOUT)
        computed = bulk.results(first["job"])["results"]
        executed = bulk.status()["points"]["executed"]
        again = bulk.submit(ARCHS, WORKLOADS, settings=SETTINGS,
                            seeds=[7500])
        if again["state"] != "done" or again["cached"] != len(ARCHS):
            fail(f"resubmission not served from the cache: {again}")
        if bulk.status()["points"]["executed"] != executed:
            fail("cached resubmission reached a worker")
        if canonical(again["results"]) != canonical(computed):
            fail("cached results differ from computed results")

        # -- traced submission: a Chrome trace from both clock domains -------
        traced = bulk.submit(["esp-nuca"], WORKLOADS,
                             settings=TRACE_SETTINGS, seeds=[99],
                             trace=True)
        end = list(bulk.events(traced["job"]))[-1]
        if end["state"] != "done" or not end.get("trace_path"):
            fail(f"traced submit produced no trace: {end}")
        if "gauges" not in bulk.job(traced["job"]):
            fail("job snapshot is missing live gauges")
        trace_events = check_trace(end["trace_path"])

        # -- the backlog to kill: JOBS uncached grids, loose quotas ----------
        killed_pids = worker_pids(bulk.status())
        seeds = [8200 + i for i in range(JOBS)]
        for seed in seeds:
            reply = bulk.submit(ARCHS, WORKLOADS, settings=SETTINGS,
                                seeds=[seed])
            submitted[seed] = reply["job"]

        # -- SIGKILL mid-backlog (submits are ms, jobs are seconds: the
        # backlog is genuinely in flight) -----------------------------------
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=30)
        bulk.close()

        # The parent-death watchdog must reap every simulation worker
        # (heartbeat interval 1s; give it a few).
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            alive = [pid for pid in killed_pids
                     if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.5)
        else:
            fail(f"simulation workers survived the SIGKILL'd gateway: "
                 f"{alive}")

        # -- restart on the same store: recovery ----------------------------
        server = start_gateway(env, db, port)
        client = GatewayClient.wait_until_ready(url, timeout=BOOT_TIMEOUT,
                                                proc=server,
                                                api_key=bulk_key)
        finals = {}
        for seed, gid in submitted.items():
            snap = client.wait(gid, timeout=FINISH_TIMEOUT)
            finals[seed] = snap
        bad = {gid: s["state"] for gid, s in finals.items()
               if s["state"] != "done"}
        if bad:
            fail(f"recovered jobs did not complete: {bad}")
        status = client.status()
        recovered = status["gateway"]["recovered"]
        # At most one job can slip to terminal in the ms between the
        # last submit and the SIGKILL; everything else must have been
        # recovered from the store.
        if recovered < len(submitted) - 1:
            fail(f"expected >= {len(submitted) - 1} recovered jobs, "
                 f"status says {recovered}")

        # -- byte-identity vs direct runs ------------------------------------
        for seed, gid in submitted.items():
            got = client.results(gid)["results"]
            want = reference_results(seed)
            if canonical(got) != canonical(want):
                fail(f"job {gid} (seed {seed}) results differ from a "
                     f"direct serial run")

        # -- graceful stop: /readyz flips false while the drain finishes -----
        final_pids = worker_pids(client.status())
        client.submit(ARCHS, WORKLOADS, settings=SETTINGS, seeds=[9300])
        server.send_signal(signal.SIGTERM)
        saw_not_ready = False
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and server.poll() is None:
            try:
                reply = client.readyz()
            except (GatewayError, OSError):
                time.sleep(0.05)  # listener mid-teardown; poll() decides
                continue
            if not reply.get("ready"):
                if reply["checks"].get("queue_accepting") is not False:
                    fail(f"draining /readyz should fail queue_accepting: "
                         f"{reply}")
                saw_not_ready = True
                break
            time.sleep(0.05)
        if not saw_not_ready:
            fail("/readyz never reported not-ready during the drain")
        client.close()
        server.wait(timeout=120)
        if server.returncode != 0:
            fail(f"gateway exited {server.returncode} after SIGTERM")
        for pid in final_pids:
            if _pid_alive(pid):
                fail(f"worker process {pid} survived the graceful stop")
        print("gateway smoke OK: "
              f"auth/rate/quota rejects typed, resubmission fully cached, "
              f"traced run exported {trace_events} event(s) to "
              f"{end['trace_path']}, {len(submitted)} job(s) "
              f"survived SIGKILL (workers reaped), all recovered to "
              f"done with results byte-identical to direct runs, "
              f"/metrics monotone across scrapes, /readyz flipped "
              f"false during the drain, clean SIGTERM stop")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


if __name__ == "__main__":
    main()
