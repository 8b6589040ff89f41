"""Timing model of the mesh: per-hop latency plus link contention.

Each directed link keeps a ``busy_until`` reservation. A message
traversing a link is serialized behind earlier traffic and occupies the
link for ``flits`` cycles. With the 5-cycle hop latency of Table 2
(3-cycle router + 2-cycle link) an uncontended traversal of ``h`` hops
costs ``5 * h`` cycles; contention adds queueing on top.

The model deliberately ignores virtual channels and buffer depth: at
the injection rates cache studies produce on a 4x2 mesh, serialization
at links is the first-order congestion effect.

Statistics live in the network's :class:`~repro.common.statsreg.Scope`
(mounted at ``noc`` by the system): aggregate ``messages`` / ``flits``
/ ``hops`` / ``queueing``, per-kind counts under ``kinds.<kind>``, and
per-directed-link traffic under ``links.r<src>-r<dst>`` (``messages`` +
``queueing``) — the breakdown that shows *where* the mesh saturates.
``arrival`` counts into flat per-route and per-link arrays, which
:meth:`Network.flush` lands in those counters.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.config import SystemConfig
from repro.common.statsreg import Counter, Scope
from repro.noc.message import MessageKind
from repro.noc.topology import MeshTopology


class Network:
    """Mesh timing: ``arrival`` computes the arrival time of a message."""

    def __init__(self, config: SystemConfig, topology: MeshTopology | None = None,
                 model_contention: bool = True) -> None:
        self.config = config
        self.topology = topology or MeshTopology(config)
        self.hop_latency = config.noc.hop_latency
        self.model_contention = model_contention
        n = self.topology.num_routers
        self._n_routers = n
        links = [[self._route_links(s, d) for d in range(n)]
                 for s in range(n)]
        # Statistics.
        self.stats = Scope()
        self._messages = self.stats.counter("messages")
        self._flits = self.stats.counter("flits")
        self._hops = self.stats.counter("hops")
        self._queueing = self.stats.counter("queueing")
        kind_scope = self.stats.scope("kinds")
        self._kind_counts: List[Counter] = [
            kind_scope.counter(k.name.lower()) for k in MessageKind]
        # Every directed link any DOR route uses gets a dense id (in a
        # stable order) indexing its busy-until slot and its
        # (messages, queueing) counters.
        link_scope = self.stats.scope("links")
        link_ids: Dict[Tuple[int, int], int] = {}
        self._link_counters: List[Tuple[Counter, Counter]] = []
        for src in range(n):
            for dst in range(n):
                for link in links[src][dst]:
                    if link not in link_ids:
                        link_ids[link] = len(link_ids)
                        ls = link_scope.scope(f"r{link[0]}-r{link[1]}")
                        self._link_counters.append((ls.counter("messages"),
                                                    ls.counter("queueing")))
        # Per (src, dst) pair: the link ids of the DOR route, walked by
        # ``arrival`` once per message.
        self._routes = [[tuple(link_ids[link] for link in links[s][d])
                         for d in range(n)] for s in range(n)]
        self._link_busy = [0] * len(link_ids)
        # Statistics are counted flat and landed in the registry by
        # flush(): per message kind a row of counts indexed
        # ``src * n + dst`` (expanded along each route at flush time),
        # and per link the queueing charged.
        self._route_counts = [[0] * (n * n) for _ in MessageKind]
        self._link_queue = [0] * len(link_ids)

    def _route_links(self, src: int, dst: int) -> Tuple[Tuple[int, int], ...]:
        route = self.topology.dor_route(src, dst)
        return tuple(zip(route[:-1], route[1:]))

    def flush(self) -> None:
        """Land the flat counts in the registry counters and zero them.

        Counter additions commute, so the totals equal what per-message
        counting would have left; readers go through the system's flush
        points (``CmpSystem.reset_stats`` / ``result`` / ``finalize``).
        """
        n = self._n_routers
        routes = self._routes
        link_counters = self._link_counters
        messages = flits = hops_total = 0
        for kind in MessageKind:
            row = self._route_counts[kind.idx]
            kind_total = 0
            for pair, count in enumerate(row):
                if not count:
                    continue
                row[pair] = 0
                src, dst = divmod(pair, n)
                route = routes[src][dst]
                kind_total += count
                hops_total += len(route) * count
                flits += kind.flits * len(route) * count
                for link_id in route:
                    link_counters[link_id][0].value += count
            if kind_total:
                messages += kind_total
                self._kind_counts[kind.idx].value += kind_total
        if messages:
            self._messages.value += messages
            self._flits.value += flits
            self._hops.value += hops_total
        link_queue = self._link_queue
        for link_id, wait in enumerate(link_queue):
            if wait:
                link_counters[link_id][1].value += wait
                self._queueing.value += wait
                link_queue[link_id] = 0

    def reset_stats(self) -> None:
        self.flush()
        self.stats.reset()

    def latency(self, src_router: int, dst_router: int) -> int:
        """Uncontended latency between two routers."""
        return self.hop_latency * self.topology.hops(src_router, dst_router)

    def arrival(self, kind: MessageKind, src_router: int, dst_router: int,
                depart: int) -> int:
        """Arrival time of a message departing ``src_router`` at ``depart``."""
        route = self._routes[src_router][dst_router]
        now = depart
        if self.model_contention:
            # Per-link serialization with a bounded wait: the simulator
            # orders events at reference granularity, so reservations
            # can be stamped out of time order; an uncapped busy-until
            # would then charge phantom waits against earlier-stamped
            # traffic. The cap (a few messages' worth of flits) keeps
            # genuine burst serialization while bounding the skew error.
            # A later reservation already on the link is kept.
            busy = self._link_busy
            hop_latency = self.hop_latency
            flits = kind.flits
            cap = 4 * flits
            for link_id in route:
                ready = busy[link_id]
                if ready > now:
                    wait = ready - now
                    if wait > cap:
                        wait = cap
                    self._link_queue[link_id] += wait
                    now += wait
                end = now + flits
                busy[link_id] = ready if ready > end else end
                now += hop_latency
        else:
            now += self.hop_latency * len(route)
        self._route_counts[kind.idx][src_router * self._n_routers
                                     + dst_router] += 1
        return now
