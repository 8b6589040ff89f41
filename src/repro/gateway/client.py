"""Synchronous HTTP client for the gateway — stdlib ``http.client``.

Used by ``esp-nuca submit``, the tests, ``tools/gateway_smoke.py`` and
the benchmarks, and small enough to read as API documentation. One
client holds one keep-alive connection; typed error replies raise
:class:`GatewayError` carrying the HTTP status and machine ``code`` so
callers branch on ``exc.code == "rate-limited"`` instead of
string-matching messages.

::

    client = GatewayClient("http://127.0.0.1:8643", api_key=key)
    job = client.submit(["esp-nuca"], ["apache"])["job"]
    for event in client.events(job):      # SSE stream
        ...
    results = payloads_to_results(client.results(job)["results"])
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, Iterator, List, Optional
from urllib.parse import urlsplit

from repro.sim.results import SimResult


class GatewayError(Exception):
    """A typed error response (4xx/5xx with an ``error`` object)."""

    def __init__(self, status: int, code: str, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"HTTP {status} [{code}] {message}")
        self.status = status
        self.code = code
        self.detail = message
        self.retry_after = retry_after


def payloads_to_results(payloads: List[Dict[str, Any]]) -> List[SimResult]:
    """Rebuild full :class:`SimResult` objects from result payloads (the
    :meth:`SimResult.to_dict` serialization the run cache stores)."""
    out = []
    for payload in payloads:
        result = SimResult.from_dict(payload)
        if result is None:
            raise ValueError("result payload does not match the current "
                             "SimResult schema (server/client skew?)")
        out.append(result)
    return out


class GatewayClient:
    """One keep-alive connection to a running gateway."""

    def __init__(self, base_url: str, api_key: Optional[str] = None,
                 timeout: float = 120.0) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"base_url must be http://host:port, "
                             f"got {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.api_key = api_key
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    @classmethod
    def wait_until_ready(cls, base_url: str, timeout: float = 60.0,
                         proc=None, api_key: Optional[str] = None
                         ) -> "GatewayClient":
        """Bounded retry/backoff until ``GET /healthz`` answers — the
        supported way to wait for a freshly spawned gateway. Retries
        with exponential backoff (50 ms doubling to 1 s) until
        ``timeout`` seconds have passed, then raises
        :class:`TimeoutError`; ``proc`` (the gateway's ``Popen``) fails
        fast with :class:`ConnectionError` when the server process dies
        first."""
        deadline = time.monotonic() + timeout
        delay = 0.05
        while True:
            if proc is not None and proc.poll() is not None:
                raise ConnectionError(
                    f"gateway process exited with code {proc.returncode} "
                    f"before becoming ready")
            client = cls(base_url, api_key=api_key)
            try:
                client.health()
                return client
            except (OSError, GatewayError, ConnectionError) as exc:
                client.close()
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"gateway at {base_url} not ready within "
                        f"{timeout:.0f}s: {exc}") from exc
            time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 2, 1.0)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.api_key is not None:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _roundtrip(self, method: str, path: str,
                   body: Optional[Dict[str, Any]] = None):
        """One request over the keep-alive connection; returns
        ``(response, raw_bytes)``. Retries once on a stale socket."""
        payload = None
        headers = self._headers()
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                data = resp.read()
                break
            except (http.client.HTTPException, ConnectionError,
                    socket.timeout, OSError):
                self.close()
                if attempt:
                    raise
        return resp, data

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One request/JSON reply; raises :class:`GatewayError` on a
        typed error status. Retries once on a stale keep-alive socket."""
        resp, data = self._roundtrip(method, path, body)
        return self._decode(resp.status, resp, data)

    def request_text(self, method: str, path: str) -> str:
        """Like :meth:`request` but returns the raw body text (the
        /metrics exposition document is not JSON); still raises a typed
        :class:`GatewayError` on error statuses."""
        resp, data = self._roundtrip(method, path)
        if resp.status >= 400:
            self._decode(resp.status, resp, data)
        return data.decode("utf-8")

    @staticmethod
    def _decode(status: int, resp, data: bytes) -> Dict[str, Any]:
        try:
            obj = json.loads(data.decode("utf-8")) if data else {}
        except ValueError:
            obj = {}
        if status >= 400:
            err = obj.get("error") or {}
            retry = resp.getheader("Retry-After")
            raise GatewayError(status, err.get("code", "unknown"),
                               err.get("message", f"HTTP {status}"),
                               retry_after=float(retry) if retry else None)
        return obj

    # -- endpoints -----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def readyz(self) -> Dict[str, Any]:
        """The readiness verdict ``{"ready": bool, "checks": {...}}``.
        Unlike :meth:`request`, a 503 (not ready) is a *answer*, not an
        error — the body is returned either way."""
        resp, data = self._roundtrip("GET", "/readyz")
        try:
            obj = json.loads(data.decode("utf-8")) if data else {}
        except ValueError:
            obj = {}
        if not isinstance(obj, dict):
            obj = {}
        obj.setdefault("ready", resp.status == 200)
        return obj

    def metrics(self) -> str:
        """The Prometheus text exposition document from ``/metrics``."""
        return self.request_text("GET", "/metrics")

    def openapi(self) -> Dict[str, Any]:
        return self.request("GET", "/openapi.json")

    def status(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/status")

    def submit(self, architectures: List[str], workloads: List[str],
               seeds: Optional[List[int]] = None,
               settings: Optional[Dict[str, Any]] = None,
               priority: int = 0, check: int = 0,
               trace: bool = False) -> Dict[str, Any]:
        """Submit a grid; returns the admission snapshot (with
        ``results`` when the grid was served entirely from the cache).

        ``check=N`` runs the points with the invariant checker sweeping
        every Nth access (docs/checking.md). ``trace=True`` captures an
        event trace of the job (one traced job at a time); the terminal
        snapshot and the ``end`` event carry ``trace_path``, a Chrome
        trace on the *gateway's* filesystem (``REPRO_TRACE_DIR``)."""
        body: Dict[str, Any] = {"architectures": architectures,
                                "workloads": workloads,
                                "priority": priority}
        if seeds is not None:
            body["seeds"] = seeds
        if settings is not None:
            body["settings"] = settings
        if check:
            body["check"] = check
        if trace:
            body["trace"] = True
        return self.request("POST", "/v1/jobs", body)

    def jobs(self, limit: int = 100) -> List[Dict[str, Any]]:
        return self.request("GET", f"/v1/jobs?limit={limit}")["jobs"]

    def job(self, job_id: str, points: bool = False) -> Dict[str, Any]:
        suffix = "?points=1" if points else ""
        return self.request("GET", f"/v1/jobs/{job_id}{suffix}")

    def results(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/v1/jobs/{job_id}/results")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request("DELETE", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.1) -> Dict[str, Any]:
        """Poll until the job is terminal; returns the final snapshot."""
        deadline = time.monotonic() + timeout
        while True:
            snap = self.job(job_id)
            if snap["state"] in ("done", "failed", "cancelled"):
                return snap
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {snap['state']} "
                                   f"after {timeout:.0f}s")
            time.sleep(poll)

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream SSE frames for a job until the ``end`` frame (the
        server closes the connection after it). Uses a dedicated
        connection — the stream consumes it."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events",
                         headers=self._headers())
            resp = conn.getresponse()
            if resp.status >= 400:
                raise self._error_from_stream(resp)
            buffer = b""
            while True:
                chunk = resp.read(4096)
                if not chunk and b"\n\n" not in buffer:
                    return
                buffer += chunk
                while b"\n\n" in buffer:
                    frame, buffer = buffer.split(b"\n\n", 1)
                    for line in frame.splitlines():
                        if line.startswith(b"data: "):
                            event = json.loads(line[6:].decode("utf-8"))
                            yield event
                            if event.get("event") == "end":
                                return
        finally:
            conn.close()

    @staticmethod
    def _error_from_stream(resp) -> GatewayError:
        try:
            obj = json.loads(resp.read().decode("utf-8"))
            err = obj.get("error") or {}
        except ValueError:
            err = {}
        return GatewayError(resp.status, err.get("code", "unknown"),
                            err.get("message", f"HTTP {resp.status}"))
