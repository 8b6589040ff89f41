"""Batched contention-path kernels (docs/engine.md, "Contention kernels").

PR 6 batched the *local* path: runs of L1 hits commit in bulk, with
their statistics folded into a handful of additions. This module does
the same for the *contention* path — the misses and upgrades the
vectorized engine still serves one at a time in exact epoch order.

The scalar timing entry points (:meth:`repro.noc.network.Network.arrival`,
:meth:`repro.mem.controller.MemoryController.service` /
``post_writeback``, :meth:`repro.architectures.base.NucaArchitecture.
bank_service`) interleave two concerns per call: the busy-until
arithmetic that *determines timing*, and the statistics counters that
*observe it*. The timing part is ordering-sensitive — each reservation
reads the state the previous one left — but the statistics are pure
commutative sums. So a :class:`ContentionSession` splits them:

* **state** stays in the same flat arrays the scalar methods use
  (``Network._link_busy`` and ``NucaArchitecture._bank_busy`` are
  aliased in place; per-controller ``_busy_until`` scalars are gathered
  into one flat list for the session and written back on uninstall), so
  the busy-until arithmetic — duplicated here instruction for
  instruction — produces byte-identical timing;
* **statistics** accumulate into flat per-link / per-controller /
  per-supplier arrays on the session and land in the live registry
  counters in one :meth:`flush` at the end of the phase — the same
  quiesce points at which the engine's local-run batching flushes, so
  warm-up resets and finalize snapshots see fully-applied counters.

The split is installed by *instance-attribute rebinding*: ``install``
assigns closures over the session arrays onto the live ``network`` /
controller / architecture objects, shadowing the class methods for the
duration of one fast phase; ``uninstall`` deletes the shadows. The
class methods themselves are untouched, so the reference engine — and
any fallback to reference granularity — pays nothing, not even a flag
test (docs/engine.md, "The functional/timing split rule").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.common.statsreg import _HIST_BUCKETS
from repro.noc.message import MessageKind
from repro.sim.request import Supplier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import CmpSystem


class ContentionSession:
    """SoA busy-state views + deferred statistics for one fast phase."""

    def __init__(self, system: "CmpSystem") -> None:
        self.system = system
        network = system.network
        self._network = network
        self._controllers = system.memory.controllers
        self._architecture = system.architecture
        self._l1s = system.l1s
        n_links = len(network._link_busy)
        n_mcs = len(self._controllers)
        n_cores = len(system.l1s)
        n_routers = len(network._route_stats)
        self._n_routers = n_routers
        # Deferred statistics (flat, flushed by flush()):
        # NoC: per-(kind, src, dst) message counts — a flat row per
        # kind indexed ``src * n_routers + dst`` (integer list ops, no
        # enum/tuple hashing per message) — expanded to the per-link
        # message counters along each DOR route at flush time — and
        # per-link queueing sums.
        self.route_counts: List[List[int]] = [
            [0] * (n_routers * n_routers) for _ in MessageKind]
        self.link_queue: List[int] = [0] * n_links
        # Memory controllers: demand/writeback counts and queueing sums.
        self.mc_demand: List[int] = [0] * n_mcs
        self.mc_writebacks: List[int] = [0] * n_mcs
        self.mc_queue: List[int] = [0] * n_mcs
        # Busy-until state for the controllers (flat for the session,
        # scattered back to the objects on uninstall). Link and bank
        # busy-until lists are already flat on their owners and are
        # aliased by the closures instead.
        self.mc_busy: List[int] = [0] * n_mcs
        # Demand-access decomposition (CmpSystem._record_access) and L1
        # hit/miss counts for CmpSystem.serve_contention. One flat
        # record per supplier — ``[count, cycles, bucket 0, bucket 1,
        # ...]`` — so a serve pays one supplier lookup, not three.
        self.sup_rec: List[List[int]] = [
            [0] * (2 + _HIST_BUCKETS) for _ in Supplier]
        self.sup_rec_local: List[int] = self.sup_rec[Supplier.L1_LOCAL.idx]
        self.l1_hits: List[int] = [0] * n_cores
        self.l1_misses: List[int] = [0] * n_cores
        # Plain link-id routes (the scalar method's triplets carry the
        # live counters; the kernel only needs the ids).
        self._routes = [
            [tuple(t[0] for t in network._route_stats[s][d])
             for d in range(n_routers)] for s in range(n_routers)]
        self._installed = False

    # -- kernel installation -------------------------------------------------

    def install(self) -> None:
        """Shadow the scalar timing methods with deferred kernels."""
        assert not self._installed
        self._installed = True
        net = self._network
        routes = self._routes
        busy = net._link_busy          # aliased: mutated in place
        hop_latency = net.hop_latency
        model = net.model_contention
        link_queue = self.link_queue
        route_counts = self.route_counts
        n_routers = self._n_routers

        def arrival(kind: MessageKind, src_router: int, dst_router: int,
                    depart: int) -> int:
            # --- timing: exact port of Network.arrival (keep in sync
            # with repro/noc/network.py) — statistics deferred. ---
            route = routes[src_router][dst_router]
            hops = len(route)
            flits = kind.flits
            now = depart
            if model and hops:
                cap = 4 * flits
                for link_id in route:
                    ready = busy[link_id]
                    if ready > now:
                        wait = ready - now
                        if wait > cap:
                            wait = cap
                        link_queue[link_id] += wait
                        now += wait
                    end = now + flits
                    busy[link_id] = ready if ready > end else end
                    now += hop_latency
            else:
                now += hop_latency * hops
            route_counts[kind.idx][src_router * n_routers + dst_router] += 1
            return now

        net.arrival = arrival

        mc_busy = self.mc_busy
        mc_demand = self.mc_demand
        mc_writebacks = self.mc_writebacks
        mc_queue = self.mc_queue
        for index, mc in enumerate(self._controllers):
            mc_busy[index] = mc._busy_until
            occupancy = mc.occupancy
            latency = mc.latency
            cap = mc.MAX_QUEUE_SERVICES * occupancy

            def service(arrive: int, _i: int = index, _occ: int = occupancy,
                        _cap: int = cap, _lat: int = latency) -> int:
                # --- timing: exact port of MemoryController.service
                # (keep in sync with repro/mem/controller.py). ---
                start = arrive
                ready = mc_busy[_i]
                if ready > start:
                    skew = ready - start
                    start += skew if skew < _cap else _cap
                    mc_queue[_i] += start - arrive
                end = start + _occ
                mc_busy[_i] = ready if ready > end else end
                mc_demand[_i] += 1
                return start + _lat

            def post_writeback(arrive: int, _i: int = index,
                               _occ: int = occupancy, _cap: int = cap) -> None:
                # --- timing: exact port of MemoryController.
                # post_writeback (keep in sync). ---
                start = arrive
                ready = mc_busy[_i]
                if ready > start:
                    skew = ready - start
                    start += skew if skew < _cap else _cap
                end = start + _occ
                mc_busy[_i] = ready if ready > end else end
                mc_writebacks[_i] += 1

            mc.service = service
            mc.post_writeback = post_writeback

        arch = self._architecture
        l2 = arch.config.l2
        tag_occ = l2.tag_latency
        hit_occ = l2.tag_latency + l2.access_latency
        bank_busy = arch._bank_busy    # aliased: mutated in place

        def bank_service(bank_id: int, t_arrive: int, hit: bool) -> int:
            # --- timing: exact port of NucaArchitecture.bank_service
            # (keep in sync with repro/architectures/base.py). ---
            occupancy = hit_occ if hit else tag_occ
            ready = bank_busy[bank_id]
            start = t_arrive
            if ready > start:
                skew = ready - start
                cap = 4 * occupancy
                start += skew if skew < cap else cap
            end = start + occupancy
            bank_busy[bank_id] = ready if ready > end else end
            return start + occupancy

        arch.bank_service = bank_service

    def uninstall(self) -> None:
        """Flush deferred statistics and restore the scalar methods."""
        if not self._installed:
            return
        self.flush()
        self._installed = False
        del self._network.arrival
        for mc in self._controllers:
            del mc.service
            del mc.post_writeback
        del self._architecture.bank_service

    # -- flushing ------------------------------------------------------------

    def flush(self) -> None:
        """Land every deferred sum in the live registry counters.

        Totals are byte-identical to what the scalar methods would have
        accumulated call by call: counter additions commute, and
        nothing reads these counters between serves during a fast phase
        (the fast path requires tracer and checker off).
        """
        net = self._network
        route_stats = net._route_stats
        n_routers = self._n_routers
        messages = flits = hops_total = 0
        for kind in MessageKind:
            row = self.route_counts[kind.idx]
            kind_total = 0
            for pair, count in enumerate(row):
                if not count:
                    continue
                row[pair] = 0
                src, dst = divmod(pair, n_routers)
                route = route_stats[src][dst]
                hops = len(route)
                kind_total += count
                hops_total += hops * count
                flits += kind.flits * hops * count
                for _, msg_c, _ in route:
                    msg_c.value += count
            if kind_total:
                messages += kind_total
                net._kind_counts[kind].value += kind_total
        if messages:
            net._messages.value += messages
            net._flits.value += flits
            net._hops.value += hops_total
        link_queue = self.link_queue
        queueing = sum(link_queue)
        if queueing:
            net._queueing.value += queueing
            for link_id, (_, queue_c) in enumerate(net._link_stats.values()):
                charged = link_queue[link_id]
                if charged:
                    queue_c.value += charged
                    link_queue[link_id] = 0
        for index, mc in enumerate(self._controllers):
            mc._busy_until = self.mc_busy[index]
            if self.mc_demand[index]:
                mc._requests.value += self.mc_demand[index]
                self.mc_demand[index] = 0
            if self.mc_writebacks[index]:
                mc._writebacks.value += self.mc_writebacks[index]
                self.mc_writebacks[index] = 0
            if self.mc_queue[index]:
                mc._queueing.value += self.mc_queue[index]
                self.mc_queue[index] = 0
        system = self.system
        for supplier in Supplier:
            rec = self.sup_rec[supplier.idx]
            count = rec[0]
            if not count:
                continue
            cycles = rec[1]
            system._access_count[supplier.idx].value += count
            system._access_cycles[supplier.idx].value += cycles
            hist = system._access_hist[supplier.idx]
            hist.count += count
            hist.total += cycles
            live = hist.buckets
            for i in range(_HIST_BUCKETS):
                charged = rec[2 + i]
                if charged:
                    live[i] += charged
                    rec[2 + i] = 0
            rec[0] = 0
            rec[1] = 0
        for core, l1 in enumerate(self._l1s):
            if self.l1_hits[core]:
                l1._hits.value += self.l1_hits[core]
                self.l1_hits[core] = 0
            if self.l1_misses[core]:
                l1._misses.value += self.l1_misses[core]
                self.l1_misses[core] = 0
