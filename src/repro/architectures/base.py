"""The architecture-policy interface and its shared machinery.

An architecture decides *where blocks live and how requests find them*;
everything else — banks, tokens, network, memory, the L1s — is common
substrate owned by :class:`repro.sim.system.CmpSystem`. Concrete
architectures implement:

* ``build_banks``      — bank array with the right replacement policy;
* ``handle_miss``      — the full L2-and-beyond path after an L1 miss
  (functional updates + returned timing);
* ``route_l1_eviction`` — where an L1 writeback allocates;
* ``on_l2_eviction``   — what happens to blocks evicted from L2
  (default: tokens and dirty data go to memory).

Allocation is the bound bank's :meth:`~repro.cache.bank.CacheBank.
allocate`: it chooses and fills the way, hands any displaced line to
``on_l2_eviction`` and registers the newcomer with the ledger.

The base class provides timing helpers (bank service with busy-until
contention, off-chip fetches, remote-L1 supply, write-token collection)
so concrete policies read like the protocol walkthroughs in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.cache.bank import CacheBank
from repro.cache.block import BlockClass, L2Line
from repro.cache.l1 import L1Line
from repro.common.config import SystemConfig
from repro.common.statsreg import Scope
from repro.noc.message import MessageKind
from repro.sim.request import Supplier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import CmpSystem


class NucaArchitecture:
    """Base class: bind-time wiring plus shared functional/timing helpers."""

    name = "base"

    #: Classifier contract strength, read by the invariant checker: a
    #: True value declares that a SHARED-classified block may keep
    #: stale PRIVATE/VICTIM entries (a documented approximation, e.g.
    #: R-NUCA's lazy page demotion) instead of the strict SP-NUCA
    #: guarantee that demotion scrubs owned copies on touch.
    classifier_stale_owned_ok = False

    #: Child-span context of the in-flight *sampled* demand access
    #: (published by :meth:`CmpSystem._traced_access`); ``None`` means
    #: tracing is off or this access is unsampled — the timing helpers
    #: below pay exactly one ``is not None`` test for it.
    _trace_ctx = None

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.system: "CmpSystem" = None  # type: ignore[assignment]
        # Policy-level statistics (helping-block creation, demotions,
        # ...). Subclasses register counters here; the system mounts
        # the scope at ``arch``.
        self.stats = Scope()

    # -- wiring ---------------------------------------------------------------

    def bind(self, system: "CmpSystem") -> None:
        self.system = system
        self.amap = system.amap
        self.topology = system.topology
        self.network = system.network
        self.memory = system.memory
        self.ledger = system.ledger
        self.banks: List[CacheBank] = self.build_banks()
        for bank in self.banks:
            bank.bind(self)
        self._bank_busy = [0] * len(self.banks)
        l2 = self.config.l2
        self._tag_occupancy = l2.tag_latency
        self._hit_occupancy = l2.tag_latency + l2.access_latency
        # Dense geometry tables: router_of_core is the identity on this
        # mesh and router_of_bank a division, but both sit on the
        # per-miss hot path — flatten to list lookups.
        topo = self.topology
        self._core_router = [topo.router_of_core(c)
                             for c in range(self.config.num_cores)]
        self._bank_router = [topo.router_of_bank(b)
                             for b in range(len(self.banks))]
        # Shadow the method wrappers with the tables' C-level
        # ``__getitem__``: every ``self.router_of_core(c)`` call across
        # the architectures dispatches straight into the list lookup,
        # with no Python frame. The class methods below stay as the
        # documented interface (and serve any unbound architecture).
        self.router_of_core = self._core_router.__getitem__
        self.router_of_bank = self._bank_router.__getitem__
        # Off-chip geometry, flattened for fetch_offchip: the nearest
        # controller (and hops to it) per router, and every controller's
        # distance to every router.
        self._mc_nearest = [topo.controller_hops(r)
                            for r in range(topo.num_routers)]
        self._mc_distance = [[topo.controller_distance(mc, r)
                              for r in range(topo.num_routers)]
                             for mc in range(topo.num_controllers)]
        # A rebound architecture starts its statistics from zero (the
        # mechanism state is rebuilt by build_banks/on_bound anyway).
        self.stats.reset()
        self.on_bound()

    def build_banks(self) -> List[CacheBank]:
        cfg = self.config.l2
        return [CacheBank(b, cfg.sets_per_bank, cfg.assoc)
                for b in range(cfg.num_banks)]

    def on_bound(self) -> None:
        """Hook for post-bind setup (e.g. ESP attaches its duel controller)."""

    def on_tracer(self, tracer) -> None:
        """Hook: the owning system swapped its tracer
        (:meth:`CmpSystem.set_tracer`); push it to any components that
        captured the old one (ESP forwards it to the duel controller)."""

    # -- interface ------------------------------------------------------------

    def handle_miss(self, core: int, block: int, is_write: bool, t: int
                    ) -> Tuple[int, Supplier]:
        """Resolve an L1 miss detected at cycle ``t``.

        Must locate the data, move tokens, fill the requester's L1 (via
        ``system.l1_fill``) and return ``(completion_cycle, supplier)``.
        """
        raise NotImplementedError

    def route_l1_eviction(self, core: int, line: L1Line, t: int = 0) -> None:
        """Place a line evicted from ``core``'s L1 somewhere in L2 (or
        memory) at cycle ``t``. Off the critical path: traffic only, no
        latency charged to the evicting access — but any off-chip
        writeback it triggers reserves controller bandwidth at ``t``."""
        raise NotImplementedError

    def on_l2_eviction(self, bank_id: int, set_index: int, entry: L2Line,
                       tokens: int, cascade: bool, t: int = 0) -> None:
        """An L2 replacement pushed ``entry`` out (its tokens already
        withdrawn from the ledger) at cycle ``t``. Default: return it to
        memory. ``cascade`` is True when the eviction was itself caused
        by a helping-block insertion — implementations must not create
        new helping blocks then (bounds recursion)."""
        self.system.send_to_memory(entry.block, tokens, entry.dirty,
                                   self.router_of_bank(bank_id), t)

    def on_l2_refusal(self, bank_id: int, line: L2Line) -> None:
        """The replacement policy refused ``line`` (a helping block at a
        zero budget); the caller still holds its tokens."""
        tr = self.system.tracer
        if tr.enabled and tr.wants("l2"):
            tr.instant(
                "l2", "allocation refused", ts=self.system.trace_now,
                pid=self.system.trace_pid(), tid=f"bank{bank_id}",
                args={"block": f"{line.block:#x}",
                      "class": line.cls.name.lower()})

    def on_block_left_chip(self, block: int) -> None:
        """Called when the last on-chip copy of ``block`` is gone."""

    def close(self) -> None:
        """Drop the references that tie this architecture, its banks
        and its system into cycles (:meth:`CmpSystem.close`)."""
        for bank in self.banks:
            bank.close()
        self.system = None  # type: ignore[assignment]

    # -- geometry shorthands ------------------------------------------------------

    def router_of_core(self, core: int) -> int:
        return self._core_router[core]

    def router_of_bank(self, bank_id: int) -> int:
        return self._bank_router[bank_id]

    def is_local_bank(self, core: int, bank_id: int) -> bool:
        return self.router_of_bank(bank_id) == self.router_of_core(core)

    # -- timing helpers -----------------------------------------------------------

    def req(self, src_router: int, dst_router: int, t: int) -> int:
        """Request-message traversal (contended)."""
        if src_router == dst_router:
            return t
        t_arrive = self.network.arrival(MessageKind.REQUEST, src_router,
                                        dst_router, t)
        ctx = self._trace_ctx
        if ctx is not None and ctx.tracer.wants("noc"):
            ctx.tracer.complete(
                "noc", "req", ts=t, dur=t_arrive - t, pid=ctx.pid,
                tid="noc", args={"src": src_router, "dst": dst_router})
        return t_arrive

    def data(self, src_router: int, dst_router: int, t: int) -> int:
        """Data-response traversal (contended)."""
        if src_router == dst_router:
            return t
        t_arrive = self.network.arrival(MessageKind.RESPONSE_DATA, src_router,
                                        dst_router, t)
        ctx = self._trace_ctx
        if ctx is not None and ctx.tracer.wants("noc"):
            ctx.tracer.complete(
                "noc", "data", ts=t, dur=t_arrive - t, pid=ctx.pid,
                tid="noc", args={"src": src_router, "dst": dst_router})
        return t_arrive

    def bank_service(self, bank_id: int, t_arrive: int, hit: bool) -> int:
        """Sequential tag(+data) access with busy-until bank contention.

        A miss is detected after the tag latency; a hit additionally
        pays the data-array access (Table 2: 2 + 5 cycles). The wait is
        capped at a few services to bound out-of-time-order skew (see
        Network.arrival).
        """
        occupancy = self._hit_occupancy if hit else self._tag_occupancy
        ready = self._bank_busy[bank_id]
        start = t_arrive
        if ready > start:
            skew = ready - start
            cap = 4 * occupancy
            start += skew if skew < cap else cap
        end = start + occupancy
        self._bank_busy[bank_id] = ready if ready > end else end
        ctx = self._trace_ctx
        if ctx is not None and ctx.tracer.wants("l2"):
            ctx.tracer.complete(
                "l2", "bank hit" if hit else "bank miss", ts=start,
                dur=occupancy, pid=ctx.pid, tid=f"bank{bank_id}",
                args={"wait": start - t_arrive} if start > t_arrive else None)
        return end

    def fetch_offchip(self, dispatch_router: int, t_dispatch: int,
                      dest_router: int) -> int:
        """Dispatch a demand fetch to the nearest controller; return the
        cycle the data reaches ``dest_router``."""
        hop = self.config.noc.hop_latency
        mc, hops_req = self._mc_nearest[dispatch_router]
        t_data = self.memory.controllers[mc].service(
            t_dispatch + hops_req * hop)
        t_done = t_data + self._mc_distance[mc][dest_router] * hop
        ctx = self._trace_ctx
        if ctx is not None and ctx.tracer.wants("mem"):
            ctx.tracer.complete(
                "mem", "off-chip fetch", ts=t_dispatch,
                dur=t_done - t_dispatch, pid=ctx.pid, tid=f"mc{mc}",
                args=None)
        return t_done

    def supply_from_l1(self, requester: int, holder: int, via_router: int,
                       t: int) -> int:
        """Forward a request from ``via_router`` to ``holder``'s L1 and
        ship the data to the requester (TokenD forwarding)."""
        t1 = self.req(via_router, self.router_of_core(holder), t)
        t2 = t1 + self.config.l1.access_latency
        return self.data(self.router_of_core(holder),
                         self.router_of_core(requester), t2)

    # -- functional token-movement helpers ----------------------------------------

    def take_read_from_l1(self, block: int, holder: int) -> Tuple[int, bool]:
        """Take a read token from ``holder``; invalidate its line when it
        would be left tokenless. Returns (tokens, dirty_transferred)."""
        state = self.ledger.state(block)
        line = state.l1[holder]
        if line.tokens > 1:
            return self.ledger.take_from_l1(block, holder, 1), False
        dirty = line.dirty
        tokens = self.ledger.take_from_l1(block, holder)
        self.system.l1s[holder].invalidate(block)
        return tokens, dirty

    def take_from_l2_line(self, line: L2Line, want_all: bool,
                          exclusive_if_sole: bool = True
                          ) -> Tuple[int, bool, bool]:
        """Withdraw tokens from a resident L2 line.

        Shared lines give a single token to each new reader so the copy
        keeps serving others; sole copies (all tokens) move wholly into
        the requesting L1 when ``exclusive_if_sole`` (the E-state
        analogue: a sole user can later write silently), as do lines
        asked with ``want_all``. Returns
        ``(tokens, dirty_transferred, removed)``.
        """
        take_all = (want_all or line.tokens == 1
                    or (exclusive_if_sole
                        and line.tokens == self.ledger.total_tokens))
        if take_all:
            dirty = line.dirty
            tokens = self.ledger.take_from_l2(line.block, line)
            self.banks[line.bank_id].remove(line.set_index, line)
            return tokens, dirty, True
        return self.ledger.take_from_l2(line.block, line, 1), False, False

    def collect_for_write(self, core: int, block: int, home_router: int,
                          t: int) -> Tuple[int, int, bool]:
        """Invalidate every copy except ``core``'s own L1 line and gather
        all their tokens at the requester (write/upgrade path).

        Returns ``(t_all_tokens_at_core, tokens, dirty_any)``; the
        completion time is the max over per-holder round trips.
        """
        state = self.ledger.state(block)
        requester_router = self.router_of_core(core)
        t_done = t
        tokens = 0
        dirty = False
        for holder in list(state.l1):
            if holder == core:
                continue
            line = state.l1[holder]
            dirty = dirty or line.dirty
            tokens += self.ledger.take_from_l1(block, holder)
            self.system.l1s[holder].invalidate(block)
            t1 = self.req(home_router, self.router_of_core(holder), t)
            t_done = max(t_done, self.data(self.router_of_core(holder),
                                           requester_router, t1))
        for line in list(state.l2):
            bank_id = line.bank_id
            dirty = dirty or line.dirty
            tokens += self.ledger.take_from_l2(block, line)
            self.banks[bank_id].remove(line.set_index, line)
            t1 = self.req(home_router, self.router_of_bank(bank_id), t)
            t1 = self.bank_service(bank_id, t1, hit=True)
            t_done = max(t_done, self.data(self.router_of_bank(bank_id),
                                           requester_router, t1))
        if state.memory_tokens > 0:
            # Rare: some tokens parked in memory while copies are on chip
            # (e.g. after a refused helping-block allocation). The writer
            # must round-trip off chip for them.
            tokens += self.ledger.take_from_memory(block)
            t_done = max(t_done, self.fetch_offchip(home_router, t,
                                                    requester_router))
        return t_done, tokens, dirty

    def handle_upgrade(self, core: int, block: int, line: L1Line, t: int) -> int:
        """Write hit on a line lacking exclusivity: collect the missing
        tokens. Returns the completion cycle."""
        t_done, tokens, _ = self.collect_for_write(
            core, block, self.router_of_core(core), t)
        line.tokens += tokens
        assert line.tokens == self.ledger.total_tokens
        line.dirty = True
        return t_done

    # -- functional allocation helpers -----------------------------------------------

    def merge_or_allocate(self, bank_id: int, set_index: int, block: int,
                          cls: BlockClass, owner: int, tokens: int,
                          dirty: bool, cascade: bool = False, t: int = 0
                          ) -> bool:
        """Merge tokens into an existing same-class copy at the target
        location, or allocate a fresh line there (the tokens go to
        memory if the policy refuses it)."""
        bank = self.banks[bank_id]
        # The set's tag map chain holds every resident copy of the
        # block in way order: one walk for the (block, class, owner)
        # probe, a second only for a PRIVATE miss — an owner's
        # writeback may also merge into its own replica.
        first = bank.tags[set_index].get(block)
        existing = first
        while existing is not None and (existing.cls is not cls
                                        or existing.owner != owner):
            existing = existing.next
        if existing is None and cls is BlockClass.PRIVATE:
            existing = first
            while existing is not None and existing.owner != owner:
                existing = existing.next
        if existing is not None:
            existing.tokens += tokens
            existing.dirty = existing.dirty or dirty
            bank.touch(existing)
            return True
        # The probe above proved no resident shares this (block, class,
        # owner): the bank can skip its duplicate walk.
        if bank.allocate(set_index, L2Line(block, cls, owner, dirty, tokens),
                         cascade, t, dup_checked=True)[0]:
            return True
        self.system.send_to_memory(block, tokens, dirty,
                                   self.router_of_bank(bank_id), t)
        return False

    # -- reporting -------------------------------------------------------------------

    def describe(self) -> str:
        return self.name
