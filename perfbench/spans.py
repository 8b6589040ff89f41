"""Spans for the traced run, recorded by the benchmark's own wrappers
around calls into each layer's public functions.

A span has a name, a start, an end, a parent span and a request id (the
run-point key or gateway job id). Coarse spans — one per point, batch,
cache call or HTTP request — are kept in memory individually and
written out when the run ends. The functional miss path is entered
hundreds of thousands of times per grid, so its spans are folded into
per-name totals as each one closes; their self time is still exact,
because every span charges its duration to the enclosing span's child
time. Self time is a span's duration minus the part its children
cover; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class SpanRecorder:
    def __init__(self) -> None:
        #: Kept spans: (id, name, start_s, end_s, parent_id, request).
        self.spans: List[Tuple[int, str, float, float, Optional[int],
                               Optional[str]]] = []
        #: name -> [calls, total_s, self_s], for kept and folded spans.
        self.totals: Dict[str, List[float]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[List[Any]]:
        """This thread's open frames: [child_s, span_id, request]."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, keep: bool = False,
             request_of: Optional[Callable[..., str]] = None) -> Callable:
        """``fn`` timed as span ``name``. ``keep`` stores each span,
        otherwise it is folded into :attr:`totals` on close (folded
        spans are for single-threaded hot paths). ``request_of(*args)``
        names the request a kept span and the spans inside it belong
        to; otherwise they inherit the enclosing span's."""
        clock = time.perf_counter
        record = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack_of = self._stack

        def folded(*args, **kwargs):
            stack = stack_of()
            frame = [0.0, None, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]

        def kept(*args, **kwargs):
            stack = stack_of()
            parent = next((f[1] for f in reversed(stack)
                           if f[1] is not None), None)
            request = (request_of(*args) if request_of is not None else
                       next((f[2] for f in reversed(stack)
                             if f[2] is not None), None))
            frame = [0.0, next(self._ids), request]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                with self._lock:
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[0]
                    self.spans.append((frame[1], name, start, end, parent,
                                       request))

        return kept if keep else folded

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def dump(self, path: str) -> None:
        payload = {
            "spans": [{"id": s[0], "name": s[1], "start_s": s[2],
                       "end_s": s[3], "parent": s[4], "request": s[5]}
                      for s in self.spans],
            "totals": {name: {"calls": int(rec[0]), "total_s": rec[1],
                              "self_s": rec[2]}
                       for name, rec in sorted(self.totals.items())},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- the engine's layers ----------------------------------------------------------

def instrument_system(rec: SpanRecorder, system) -> None:
    """Wrap the functional miss path, the token ledger and the result
    snapshot on one simulated system's instances. Must run before the
    engine is built: the vectorized engine binds ``handle_miss`` at
    construction."""
    arch = system.architecture
    for attr in ("handle_miss", "route_l1_eviction", "merge_or_allocate"):
        setattr(arch, attr, rec.wrap(f"architectures.{attr}",
                                     getattr(arch, attr)))
    system.l1_fill = rec.wrap("architectures.l1_fill", system.l1_fill)
    ledger = system.ledger
    for attr in ("take_from_l1", "register_l2", "take_from_l2"):
        setattr(ledger, attr, rec.wrap("coherence.ledger",
                                       getattr(ledger, attr)))
    system.finalize = rec.wrap("stats.result", system.finalize, keep=True)


def instrument_engine(rec: SpanRecorder, engine) -> None:
    engine.run = rec.wrap("sim.run", engine.run, keep=True)


def engine_layer_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """Host-time per-layer metrics of the engine and the miss path.
    Times are inclusive of nested spans (``l1_fill`` contains
    ``route_l1_eviction``, which contains ``merge_or_allocate``);
    ``sim.self.s`` is the engine's own time outside every wrapped
    layer."""
    return {
        "sim.run.s": rec.total_s("sim.run"),
        "sim.self.s": rec.self_s("sim.run"),
        "architectures.handle_miss.calls": rec.calls(
            "architectures.handle_miss"),
        "architectures.handle_miss.s": rec.total_s(
            "architectures.handle_miss"),
        "architectures.l1_fill.s": rec.total_s("architectures.l1_fill"),
        "architectures.route_l1_eviction.s": rec.total_s(
            "architectures.route_l1_eviction"),
        "architectures.merge_or_allocate.s": rec.total_s(
            "architectures.merge_or_allocate"),
        "coherence.ledger.calls": rec.calls("coherence.ledger"),
        "coherence.ledger.s": rec.total_s("coherence.ledger"),
        "stats.result.s": rec.total_s("stats.result"),
    }


def simulated_counts(payloads) -> Dict[str, float]:
    """Simulated statistics summed over result payloads. They are not
    speed metrics: a change that only speeds the simulator must leave
    every one of them unchanged for the same seed."""
    counts = dict.fromkeys(("sim.refs", "sim.l1_local_refs", "noc.messages",
                            "noc.flits", "mem.requests", "l2.hits",
                            "l2.misses"), 0)
    for p in payloads:
        counts["sim.refs"] += p["memory_accesses"]
        counts["sim.l1_local_refs"] += p["supplier_count"]["L1_LOCAL"]
        counts["noc.messages"] += p["noc_messages"]
        counts["noc.flits"] += p["stats"]["noc"]["flits"]
        counts["mem.requests"] += p["offchip_demand"] + p["offchip_writebacks"]
        counts["l2.hits"] += p["l2_hits"]
        counts["l2.misses"] += p["l2_demand_lookups"] - p["l2_hits"]
    return counts
