"""The service core behind the gateway: validation, scheduling,
coalescing, backpressure, streaming, tracing, drain — integration-tested
through :class:`~repro.gateway.GatewayThread` and
:class:`~repro.gateway.GatewayClient` against real (tiny-fidelity)
simulations.

The acceptance contract pinned here:

* concurrent clients submitting overlapping grids get results
  byte-identical to direct executor/runner runs;
* duplicate in-flight submissions coalesce (executor sees fewer points
  than were requested);
* a full queue rejects with the typed ``queue-full`` error instead of
  blocking;
* repeat submissions are answered from the persistent run cache without
  touching a worker, also across a restart;
* a drain completes with zero orphaned workers (asyncio tasks, OS
  threads and fabric processes) and every result in the run cache;
* one traced job at a time exports a valid Chrome trace.
"""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.gateway import http as ghttp
from repro.gateway import (GatewayClient, GatewayConfig, GatewayError,
                           GatewayThread, JobStore, payloads_to_results)
from repro.harness.executor import Executor
from repro.harness.runcache import RunCache
from repro.harness.runner import RunSettings, grid_points
from repro.service import QueueFullError
from repro.service import protocol as proto

QUICK = RunSettings(capacity_factor=8, refs_per_core=400,
                    warmup_refs_per_core=100, num_seeds=2)
SEEDS = [7, 11]
ARCHS = ["shared", "private", "esp-nuca"]
WORKLOADS = ["apache", "gcc-4"]
SETTINGS_WIRE = {"refs_per_core": QUICK.refs_per_core,
                 "warmup_refs_per_core": QUICK.warmup_refs_per_core,
                 "capacity_factor": QUICK.capacity_factor}

CLIENT_TIMEOUT = 120.0


class CountingExecutor(Executor):
    """Real executor that records traffic and can hold batches at a gate
    (to pin work in-flight while assertions run)."""

    def __init__(self, *args, gate=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0
        self.points_seen = 0
        self.point_log = []
        self._gate = gate
        self._lock = threading.Lock()

    def run(self, points):
        with self._lock:
            self.calls += 1
            self.points_seen += len(points)
            self.point_log.extend((p.name, p.workload, p.seed)
                                  for p in points)
        if self._gate is not None:
            assert self._gate.wait(timeout=60), "test gate never released"
        return super().run(points)


def gated_point_batch(payload):
    """Fabric runner for the crash-recovery test: marks which worker
    process started the job, then holds it until the release file
    appears (so the test can kill a worker mid-batch at a known point).
    Module-level so it pickles under any start method."""
    from repro.harness.fabric import run_point_batch

    gate_dir = os.environ.get("REPRO_TEST_FABRIC_GATE")
    if gate_dir:
        marker = os.path.join(
            gate_dir, f"started-{os.getpid()}-{time.time_ns()}")
        with open(marker, "w", encoding="utf-8"):
            pass
        release = os.path.join(gate_dir, "release")
        while not os.path.exists(release):
            time.sleep(0.01)
    return run_point_batch(payload)


class GatedFabricExecutor(Executor):
    """Executor whose fabric workers run the gated job runner."""

    def _ensure_pool(self):
        from repro.harness import fabric

        with self._pool_lock:
            if self._pool is None:
                self._pool = fabric.WorkerPool(
                    self.jobs, runner=gated_point_batch)
            return self._pool


def service(tmp_path, executor=None, cache_dir=None, db="gw.sqlite",
            **config):
    """A gateway on a background loop; anonymous requests allowed
    unless the caller says otherwise."""
    if executor is None:
        cache = (RunCache(root=str(cache_dir)) if cache_dir
                 else RunCache(enabled=False))
        executor = CountingExecutor(jobs=1, cache=cache)
    config.setdefault("bind", ("tcp", "127.0.0.1", 0))
    config.setdefault("db_path", str(tmp_path / db))
    config.setdefault("allow_anonymous", True)
    return GatewayThread(GatewayConfig(**config), executor=executor,
                         settings=QUICK)


def connect(handle, api_key=None):
    return GatewayClient(handle.base_url, api_key=api_key,
                         timeout=CLIENT_TIMEOUT)


def follow(client, reply):
    """The admission reply merged with the job's ``end`` event."""
    end = list(client.events(reply["job"]))[-1]
    assert end["event"] == "end"
    return dict(reply, **end)


def run_grid(client, archs, workloads, seeds, **kwargs):
    """Submit a grid and wait for its end event."""
    reply = client.submit(archs, workloads, seeds=seeds,
                          settings=SETTINGS_WIRE, **kwargs)
    return follow(client, reply)


def wait_until(predicate, message, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        assert time.monotonic() < deadline, f"{message} within {timeout}s"
        time.sleep(0.02)


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def quick_points(archs, workloads, seeds):
    from repro.common.config import scaled_config

    return grid_points(scaled_config(QUICK.capacity_factor), QUICK,
                       archs, workloads, seeds)


def reference_payloads(archs, workloads, seeds):
    """Direct serial executor run of the same grid, no caches."""
    executor = Executor(jobs=1, cache=RunCache(enabled=False))
    return [r.to_dict() for r in executor.run(
        quick_points(archs, workloads, seeds))]


def raw_request(handle, payload):
    """Send raw bytes to the gateway; returns ``(status line, body)``."""
    _, host, port = handle.address
    with socket.create_connection((host, port),
                                  timeout=CLIENT_TIMEOUT) as sock:
        sock.sendall(payload)
        stream = sock.makefile("rb")
        status = stream.readline().decode()
        length = 0
        for line in iter(stream.readline, b"\r\n"):
            name, _, value = line.decode().partition(":")
            if name.lower() == "content-length":
                length = int(value)
        return status, json.loads(stream.read(length))


# -- request validation -------------------------------------------------------

class TestProtocol:
    def test_decode_rejects_non_object(self, tmp_path):
        with service(tmp_path) as handle:
            for body in (b"[1, 2, 3]", b'"a string"'):
                status, obj = raw_request(
                    handle, b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
                assert " 400 " in status
                assert obj["error"]["code"] == "bad-json"

    def test_unknown_command_rejected(self, tmp_path):
        """A job's sub-routes are its commands: an unknown one is a
        typed 404, a known one with the wrong method a typed 405."""
        with service(tmp_path) as handle:
            with connect(handle) as client:
                job = run_grid(client, ["shared"], ["apache"], [3])["job"]
                with pytest.raises(GatewayError) as exc:
                    client.request("GET", f"/v1/jobs/{job}/reboot")
                assert (exc.value.status, exc.value.code) == \
                    (404, "not-found")
                with pytest.raises(GatewayError) as exc:
                    client.request("POST", f"/v1/jobs/{job}/results", {})
                assert (exc.value.status, exc.value.code) == \
                    (405, "method-not-allowed")

    def test_check_int_rejects_bool_and_below_minimum(self):
        with pytest.raises(proto.ProtocolError):
            proto.check_int({"n": True}, "n", 1, 0)
        with pytest.raises(proto.ProtocolError):
            proto.check_int({"n": -1}, "n", 1, 0)
        assert proto.check_int({}, "n", 5, 0) == 5

    def test_parse_address_forms(self):
        assert proto.parse_address("unix:/tmp/x.sock") == \
            ("unix", "/tmp/x.sock")
        assert proto.parse_address("example.org:1234") == \
            ("tcp", "example.org", 1234)
        assert proto.parse_address(":9000") == ("tcp", "127.0.0.1", 9000)
        with pytest.raises(ValueError):
            proto.parse_address("host:not-a-port")
        with pytest.raises(ValueError):
            proto.parse_address("unix:")


# -- scheduler unit tests -----------------------------------------------------

class TestScheduler:
    def _points(self, n):
        return [(p.key, p) for p in quick_points(
            ARCHS, WORKLOADS, range(n))][:n]

    def test_admission_is_all_or_nothing(self):
        import asyncio

        from repro.service.queue import Scheduler

        async def scenario():
            scheduler = Scheduler(limit=3)
            pts = self._points(5)
            tasks, coalesced = scheduler.admit(pts[:2])
            assert len(tasks) == 2 and coalesced == 0
            with pytest.raises(QueueFullError):
                scheduler.admit(pts[2:5])  # needs 3 slots, 1 free
            assert scheduler.backlog == 2  # untouched by the reject
            # resubmitting the same keys coalesces without using slots
            tasks2, coalesced2 = scheduler.admit(pts[:2])
            assert coalesced2 == 2
            assert tasks2.keys() == tasks.keys()
            assert scheduler.backlog == 2

        asyncio.run(scenario())

    def test_batch_pop_respects_priority_then_order(self):
        import asyncio

        from repro.service.queue import Scheduler

        async def scenario():
            scheduler = Scheduler(limit=10)
            pts = self._points(4)
            scheduler.admit(pts[:2], priority=0)
            scheduler.admit(pts[2:4], priority=5)
            batch = await scheduler.next_batch(10)
            assert [t.key for t in batch] == \
                [k for k, _ in pts[2:4] + pts[:2]]

        asyncio.run(scenario())

    def test_release_drops_unwanted_queued_tasks(self):
        import asyncio

        from repro.service.queue import Scheduler

        async def scenario():
            scheduler = Scheduler(limit=10)
            pts = self._points(1)
            tasks, _ = scheduler.admit(pts)
            task = next(iter(tasks.values()))
            scheduler.release(task)
            assert scheduler.backlog == 0
            assert scheduler.inflight == 0
            scheduler.close()
            assert await scheduler.next_batch(10) is None

        asyncio.run(scenario())


# -- integration: concurrent clients ------------------------------------------

class TestConcurrentClients:
    def test_overlapping_grids_byte_identical_and_coalesced(self, tmp_path):
        """N=8 concurrent clients, overlapping grids, gate held so every
        duplicate is genuinely in-flight when it coalesces."""
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        # Overlapping subsets: every client shares points with others.
        grids = [(ARCHS[i % 2:], WORKLOADS) for i in range(8)]
        requested = sum(len(a) * len(w) * len(SEEDS) for a, w in grids)
        collected = [None] * len(grids)

        try:
            with service(tmp_path, executor, workers=2, batch=4,
                         queue_limit=64) as handle:
                def run_client(i, archs, workloads):
                    with connect(handle) as client:
                        end = run_grid(client, archs, workloads, SEEDS)
                        assert end["state"] == "done"
                        collected[i] = end["results"]

                threads = [threading.Thread(target=run_client,
                                            args=(i, a, w))
                           for i, (a, w) in enumerate(grids)]
                for thread in threads:
                    thread.start()
                # Everything submitted before any simulation completes.
                with connect(handle) as admin:
                    pts = wait_until(
                        lambda: (lambda p: p if p["requested"] >= requested
                                 else None)(admin.status()["points"]),
                        "all submissions admitted")
                    assert pts["coalesced"] > 0
                gate.set()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
        finally:
            gate.set()

        # Coalescing: the executor saw each unique point once.
        unique = len({(a, w, s) for archs, wls in grids
                      for a in archs for w in wls for s in SEEDS})
        assert executor.points_seen == unique
        assert unique < requested

        # Byte-identical to a direct serial executor run of each grid.
        for (archs, workloads), results in zip(grids, collected):
            reference = reference_payloads(archs, workloads, SEEDS)
            assert [canonical(r) for r in results] == \
                [canonical(r) for r in reference]

    def test_tcp_transport(self, tmp_path):
        with service(tmp_path) as handle:
            with connect(handle) as client:
                assert client.health()["ok"] is True
                reply = run_grid(client, ["shared"], ["apache"], [7])
                assert reply["state"] == "done"
                result = payloads_to_results(reply["results"])[0]
                assert result.architecture == "shared"
                assert result.cycles > 0


# -- integration: cache fast path ---------------------------------------------

class TestCacheFastPath:
    def test_repeat_submission_never_reaches_a_worker(self, tmp_path):
        cache_dir = tmp_path / "cache"
        executor = CountingExecutor(jobs=1,
                                    cache=RunCache(root=str(cache_dir)))
        with service(tmp_path, executor) as handle:
            with connect(handle) as client:
                first = run_grid(client, ["shared", "esp-nuca"], ["apache"],
                                 SEEDS)
                assert first["state"] == "done"
                executed = executor.points_seen
                assert executed == 4
                # Answered at admission: results ride the submit reply.
                second = client.submit(["shared", "esp-nuca"], ["apache"],
                                       seeds=SEEDS, settings=SETTINGS_WIRE)
                assert second["state"] == "done"
                assert second["cached"] == 4
                assert executor.points_seen == executed  # no worker touched
                assert client.status()["points"]["executed"] == executed
                assert [canonical(r) for r in second["results"]] == \
                    [canonical(r) for r in first["results"]]

    def test_cache_survives_service_restart(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with service(tmp_path, cache_dir=cache_dir, db="a.sqlite") as handle:
            with connect(handle) as client:
                first = run_grid(client, ["shared"], ["apache"], [7])
        executor = CountingExecutor(jobs=1,
                                    cache=RunCache(root=str(cache_dir)))
        with service(tmp_path, executor, db="b.sqlite") as handle:
            with connect(handle) as client:
                again = client.submit(["shared"], ["apache"], seeds=[7],
                                      settings=SETTINGS_WIRE)
                assert again["cached"] == 1
                assert executor.calls == 0
                assert canonical(again["results"][0]) == \
                    canonical(first["results"][0])


# -- integration: backpressure and limits -------------------------------------

class TestBackpressure:
    def test_full_queue_rejects_with_typed_error(self, tmp_path):
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        try:
            with service(tmp_path, executor, workers=1, batch=1,
                         queue_limit=2) as handle:
                with connect(handle) as client:
                    blocker = client.submit(["shared"], ["apache"],
                                            seeds=[1],
                                            settings=SETTINGS_WIRE)
                    # Wait until the blocker occupies the worker, so the
                    # backlog below is exactly deterministic.
                    wait_until(lambda: client.job(blocker["job"])
                               ["counts"]["running"] == 1,
                               "blocker running")
                    for seed in (2, 3):
                        client.submit(["shared"], ["apache"], seeds=[seed],
                                      settings=SETTINGS_WIRE)
                    with pytest.raises(GatewayError) as exc:
                        client.submit(["shared"], ["apache"], seeds=[4],
                                      settings=SETTINGS_WIRE)
                    assert (exc.value.status, exc.value.code) == \
                        (503, "queue-full")
                    # The reject left the queue intact; coalescing onto
                    # queued work still succeeds (needs no new slot).
                    joined = client.submit(["shared"], ["apache"],
                                           seeds=[3],
                                           settings=SETTINGS_WIRE)
                    assert joined["coalesced"] == 1
                    gate.set()
        finally:
            gate.set()

    def test_per_client_job_limit(self, tmp_path):
        """Each client (tenant) has its own unfinished-job allowance."""
        db = tmp_path / "gw.sqlite"
        with JobStore.open(str(db)) as store:
            _, alice = store.add_tenant("alice", max_jobs=2)
            _, bob = store.add_tenant("bob", max_jobs=2)
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        try:
            with service(tmp_path, executor, workers=1, batch=1,
                         allow_anonymous=False) as handle:
                with connect(handle, api_key=alice) as client:
                    for seed in (1, 2):
                        client.submit(["shared"], ["apache"], seeds=[seed],
                                      settings=SETTINGS_WIRE)
                    with pytest.raises(GatewayError) as exc:
                        client.submit(["shared"], ["apache"], seeds=[3],
                                      settings=SETTINGS_WIRE)
                    assert (exc.value.status, exc.value.code) == \
                        (429, "quota-jobs")
                with connect(handle, api_key=bob) as other:
                    other.submit(["shared"], ["apache"], seeds=[3],
                                 settings=SETTINGS_WIRE)
                gate.set()
        finally:
            gate.set()

    def test_bad_requests_are_typed(self, tmp_path):
        with service(tmp_path) as handle:
            with connect(handle) as client:
                with pytest.raises(GatewayError) as exc:
                    client.submit(["no-such-arch"], ["apache"], seeds=[1])
                assert (exc.value.status, exc.value.code) == \
                    (400, "bad-request")
                with pytest.raises(GatewayError) as exc:
                    client.job("g999")
                assert (exc.value.status, exc.value.code) == \
                    (404, "unknown-job")
                with pytest.raises(GatewayError) as exc:
                    client.request("POST", "/v1/jobs", {
                        "architectures": ["shared"],
                        "workloads": ["apache"],
                        "settings": {"bogus_knob": 3}})
                assert exc.value.code == "bad-request"
                with pytest.raises(GatewayError) as exc:
                    client.request("POST", "/v1/jobs", {
                        "architectures": ["shared"],
                        "workloads": ["apache"], "trace": "yes"})
                assert exc.value.code == "bad-request"


# -- integration: watch, cancel, drain ----------------------------------------

class TestLifecycle:
    def test_watch_streams_progress_then_results(self, tmp_path):
        with service(tmp_path) as handle:
            with connect(handle) as client:
                reply = client.submit(["shared", "private"], ["apache"],
                                      seeds=[7], settings=SETTINGS_WIRE)
                events = list(client.events(reply["job"]))
        assert events[-1]["event"] == "end"
        assert all(e["event"] == "progress" for e in events[:-1])
        done_counts = [e["counts"]["done"] for e in events[:-1]]
        assert done_counts == sorted(done_counts)  # monotonic progress
        results = events[-1]["results"]
        assert len(results) == 2
        # Results carry the full hierarchical registry snapshot.
        for payload in results:
            assert payload["stats"].get("l2")
            assert payload["stats"].get("noc")

    def test_cancel_drops_queued_points(self, tmp_path):
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        try:
            with service(tmp_path, executor, workers=1, batch=1,
                         queue_limit=64) as handle:
                with connect(handle) as client:
                    blocker = client.submit(["shared"], ["apache"],
                                            seeds=[1],
                                            settings=SETTINGS_WIRE)
                    victim = client.submit(["private"], ["apache"],
                                           seeds=[2],
                                           settings=SETTINGS_WIRE)
                    cancelled = client.cancel(victim["job"])
                    assert cancelled["state"] == "cancelled"
                    gate.set()
                    assert follow(client, blocker)["state"] == "done"
                drained = handle.drain()
            assert drained["workers_alive"] == 0
            # The cancelled point never ran.
            assert ("private", "apache", 2) not in executor.point_log
        finally:
            gate.set()

    def test_drain_completes_with_zero_orphaned_workers(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        executor = CountingExecutor(jobs=1, cache=RunCache(root=cache_dir))
        with service(tmp_path, executor, workers=3) as handle:
            with connect(handle) as client:
                client.submit(["shared", "private"], ["apache"], seeds=[5],
                              settings=SETTINGS_WIRE)
            drained = handle.drain()
        assert drained["drained"] is True
        assert drained["workers_alive"] == 0
        assert drained["executed_points"] == 2
        assert "cache" in drained
        assert drained["store"] == {"done": 1}
        # The drain waited for the job: every result is in the run cache.
        cache = RunCache(root=cache_dir)
        for point in quick_points(["shared", "private"], ["apache"], [5]):
            assert cache.get(point.key) is not None, point.name
        # No simulation threads survive the drain.
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("esp-nuca-sim")]

    def test_worker_crash_mid_batch_requeued_once_and_drains(
            self, tmp_path, monkeypatch):
        """Kill a simulation worker process mid-batch: the fabric
        requeues its job exactly once, the job completes on a
        surviving/replacement worker with correct results, and the
        drain barrier still resolves everything."""
        gate_dir = str(tmp_path / "gate")
        os.makedirs(gate_dir)
        monkeypatch.setenv("REPRO_TEST_FABRIC_GATE", gate_dir)

        def markers():
            return sorted(name for name in os.listdir(gate_dir)
                          if name.startswith("started-"))

        executor = GatedFabricExecutor(jobs=2, cache=RunCache(enabled=False))
        with service(tmp_path, executor, workers=1, batch=4) as handle:
            with connect(handle) as client:
                reply = client.submit(["shared", "private"], ["apache"],
                                      seeds=[7], settings=SETTINGS_WIRE)
                # two points -> two fabric jobs, one per worker process
                wait_until(lambda: len(markers()) >= 2,
                           "both workers starting a job")
                pids = {int(name.split("-")[1]) for name in markers()}
                assert len(pids) == 2
                status = client.status()
                assert status["procs"] == 2
                assert status["procs_busy"] == 2
                os.kill(min(pids), signal.SIGKILL)
                wait_until(lambda: len(markers()) >= 3,
                           "the crashed job restarting")
                with open(os.path.join(gate_dir, "release"), "w",
                          encoding="utf-8"):
                    pass
                end = follow(client, reply)
                assert end["state"] == "done"
                # byte-identical to a direct serial run despite the crash
                assert ([canonical(p) for p in end["results"]]
                        == [canonical(p) for p in reference_payloads(
                            ["shared", "private"], ["apache"], [7])])
                stats = executor.fabric_stats()
                assert stats["requeued"] == 1
                assert stats["crashed"] == 1
            drained = handle.drain()
        assert drained["workers_alive"] == 0
        # the drain barrier tore the fabric down with the gateway
        assert executor.fabric_stats() is None

    def test_submissions_while_draining_get_typed_error(self, tmp_path):
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        try:
            with service(tmp_path, executor, workers=1, batch=1) as handle:
                with connect(handle) as client:
                    client.submit(["shared"], ["apache"], seeds=[1],
                                  settings=SETTINGS_WIRE)
                    summary = {}
                    drainer = threading.Thread(
                        target=lambda: summary.update(handle.drain()))
                    drainer.start()
                    wait_until(lambda: client.health()["draining"],
                               "drain started")
                    with pytest.raises(GatewayError) as exc:
                        client.submit(["shared"], ["apache"], seeds=[9],
                                      settings=SETTINGS_WIRE)
                    assert (exc.value.status, exc.value.code) == \
                        (503, "draining")
                    gate.set()
                    drainer.join(timeout=120)
                    assert not drainer.is_alive()
                    assert summary.get("drained") is True
        finally:
            gate.set()


# -- event tracing + live gauges ----------------------------------------------

class TestTracingAndGauges:
    def test_snapshots_carry_queue_and_worker_gauges(self, tmp_path):
        with service(tmp_path, workers=1, batch=1) as handle:
            with connect(handle) as client:
                job = run_grid(client, ["shared"], ["apache"], [3])["job"]
                gauges = client.job(job)["gauges"]
                assert set(gauges) >= {"queue_backlog", "queue_inflight",
                                       "queue_limit", "workers_busy",
                                       "workers", "procs_busy", "procs"}
                assert gauges["queue_backlog"] == 0  # job is done
                assert gauges["workers"] == 1
                assert gauges["procs"] == 1  # simulation processes
                status = client.status()
                assert status["workers_busy"] == 0
                assert status["procs_busy"] == 0
                assert status["procs"] == 1
                # jobs=1 is the serial fallback: the fabric never starts
                assert status["fabric"] is None

    def test_watch_stream_includes_gauges(self, tmp_path):
        with service(tmp_path, workers=1, batch=1) as handle:
            with connect(handle) as client:
                job = client.submit(["shared"], ["apache"], seeds=[4],
                                    settings=SETTINGS_WIRE)["job"]
                progress = [e for e in client.events(job)
                            if e.get("event") == "progress"]
                assert progress
                assert all("gauges" in e for e in progress)

    def test_traced_submit_exports_valid_chrome_trace(self, tmp_path,
                                                      monkeypatch):
        from repro.obs import trace as obs
        from repro.obs.export import (events_of_category, span_names,
                                      validate_chrome)

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        with service(tmp_path, workers=1, batch=1) as handle:
            with connect(handle) as client:
                reply = run_grid(client, ["esp-nuca"], ["apache"], [5],
                                 trace=True)
                assert reply["state"] == "done"
                assert reply["trace"] is True
                path = reply["trace_path"]
                snap = client.job(reply["job"])
                assert snap["trace_path"] == path
                assert snap.get("trace_error") is None
        # The tracer was uninstalled when the job finished.
        assert obs.active() is obs.NULL_TRACER
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert validate_chrome(payload) == []
        # Lifecycle spans + gauges counters on the service track.
        service_events = events_of_category(payload, "service")
        assert {e["name"] for e in service_events} >= \
            {"job admitted", "queue depth", "busy workers"}
        lifecycle = [e["name"] for e in service_events if e["ph"] == "X"]
        assert "running" in lifecycle
        # Sim-clock events from the worker's simulation made it in.
        assert events_of_category(payload, "l2")
        assert any(name.startswith("run esp-nuca/")
                   for name in span_names(payload))

    def test_one_traced_job_at_a_time(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        try:
            with service(tmp_path, executor, workers=1, batch=1) as handle:
                with connect(handle) as client:
                    first = client.submit(["shared"], ["apache"], seeds=[6],
                                          settings=SETTINGS_WIRE,
                                          trace=True)
                    with pytest.raises(GatewayError) as exc:
                        client.submit(["shared"], ["apache"], seeds=[8],
                                      settings=SETTINGS_WIRE, trace=True)
                    assert (exc.value.status, exc.value.code) == \
                        (400, "bad-request")
                    assert "one traced job at a time" in exc.value.detail
                    # The reject created no stored job.
                    assert len(client.jobs()) == 1
                    gate.set()
                    assert follow(client, first)["trace_path"]
                    # The slot is free again for a new traced job.
                    again = run_grid(client, ["shared"], ["apache"], [9],
                                     trace=True)
                    assert again["trace_path"]
        finally:
            gate.set()


# -- hostile and broken clients -----------------------------------------------

class TestProtocolHardening:
    """A hostile or broken client gets a typed error (where a reply is
    still possible) and never wedges the core: every test ends by
    proving the gateway still does real work."""

    def _raw_connect(self, handle):
        _, host, port = handle.address
        return socket.create_connection((host, port), timeout=CLIENT_TIMEOUT)

    def _read_response(self, stream):
        status = stream.readline().decode()
        length = 0
        for line in iter(stream.readline, b"\r\n"):
            assert line, "connection closed inside the headers"
            name, _, value = line.decode().partition(":")
            if name.lower() == "content-length":
                length = int(value)
        return status, json.loads(stream.read(length))

    def _still_serving(self, handle):
        with connect(handle) as client:
            assert run_grid(client, ["shared"], ["apache"],
                            [77])["state"] == "done"

    def test_malformed_json_line_gets_typed_error(self, tmp_path):
        """Undecodable JSON and JSON the core refuses are both typed
        400s, and the keep-alive connection resyncs after each."""
        with service(tmp_path) as handle:
            sock = self._raw_connect(handle)
            try:
                stream = sock.makefile("rb")
                for body, code in (
                        (b'{"architectures": [shared], not json}',
                         "bad-json"),
                        (json.dumps({"architectures": ["shared"],
                                     "workloads": ["apache"],
                                     "seeds": [True]}).encode(),
                         "bad-request")):
                    sock.sendall(
                        b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
                    status, obj = self._read_response(stream)
                    assert " 400 " in status
                    assert obj["error"]["code"] == code
                sock.sendall(b"GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n")
                status, obj = self._read_response(stream)
                assert " 200 " in status
            finally:
                sock.close()
            self._still_serving(handle)

    def test_oversized_request_line_rejected_not_buffered(self, tmp_path):
        """No newline anywhere: the gateway gives up once the stream
        limit is exceeded instead of buffering forever, replies with a
        typed 431 and drops the connection."""
        with service(tmp_path) as handle:
            sock = self._raw_connect(handle)
            try:
                # One byte over the limit: the reader fails only once
                # every byte is in, so none is left unread to reset the
                # connection before the reply arrives.
                sock.sendall(b"G" * (ghttp.STREAM_LIMIT + 1))
                stream = sock.makefile("rb")
                status, obj = self._read_response(stream)
                assert " 431 " in status
                assert obj["error"]["code"] == "line-too-long"
                assert stream.read() == b""  # server closed it
            finally:
                sock.close()
            self._still_serving(handle)

    def test_abrupt_disconnect_mid_watch_leaves_job_running(self, tmp_path):
        """A watcher that vanishes mid-stream must not affect the job:
        a later watcher still sees it complete with results."""
        gate = threading.Event()
        executor = CountingExecutor(jobs=1, cache=RunCache(enabled=False),
                                    gate=gate)
        try:
            with service(tmp_path, executor, workers=1, batch=1) as handle:
                with connect(handle) as client:
                    job = client.submit(["shared"], ["apache"], seeds=[21],
                                        settings=SETTINGS_WIRE)["job"]
                    _, host, port = handle.address
                    sock = socket.create_connection((host, port),
                                                    timeout=CLIENT_TIMEOUT)
                    sock.sendall(b"GET /v1/jobs/" + job.encode() +
                                 b"/events HTTP/1.1\r\nHost: x\r\n\r\n")
                    stream = sock.makefile("rb")
                    while b"data: " not in stream.readline():
                        pass  # first snapshot arrived
                    # abrupt: no goodbye, mid-subscription
                    sock.shutdown(socket.SHUT_RDWR)
                    stream.close()
                    sock.close()
                    gate.set()
                    end = list(client.events(job))[-1]
                    assert end["state"] == "done"
                    assert len(end["results"]) == 1
                    assert run_grid(client, ["shared"], ["apache"],
                                    [77])["state"] == "done"
        finally:
            gate.set()
