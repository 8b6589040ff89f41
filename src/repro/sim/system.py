"""The simulated CMP: cores' L1s, the NUCA L2, mesh, memory, coherence.

``CmpSystem`` owns every hardware component and the access entry point;
the bound :class:`~repro.architectures.base.NucaArchitecture` supplies
the L2 placement/search/replacement policy. One system instance equals
one run: build, feed references, read the :class:`SimResult`.

Statistics live in one :class:`~repro.common.statsreg.StatsRegistry`:
every component keeps its own :class:`Scope` and the system mounts them
all here (``l2.bank<i>``, ``l1.core<i>``, ``noc``, ``mem``,
``coherence``, ``arch``, plus the system-level ``access`` scope with
the per-supplier latency decomposition). Warm-up reset is one tree walk
and :class:`SimResult` is a snapshot of the tree — see
docs/observability.md.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List

from repro.cache.l1 import L1Cache, L1Line
from repro.common.addresses import AddressMap
from repro.common.config import CheckConfig, SystemConfig
from repro.common.statsreg import (_HIST_BUCKETS, Counter, Histogram,
                                    StatsRegistry)
from repro.mem.controller import MemorySystem
from repro.noc.network import Network
from repro.noc.topology import MeshTopology
from repro.coherence.tokens import TokenLedger
from repro.obs import trace as obs
from repro.sim.request import AccessOutcome, Supplier
from repro.sim.results import SimResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.architectures.base import NucaArchitecture


def _effective_checks(configured: CheckConfig) -> CheckConfig:
    """The check policy after the ``REPRO_CHECKS`` override.

    ``REPRO_CHECKS=<N>`` forces invariant checking on with sample
    period N (``REPRO_CHECKS=1`` checks every access) regardless of the
    run's config — the hook CI uses to run existing suites fully
    checked. ``REPRO_CHECKS=0`` forces it off. Unset/blank defers to
    ``SystemConfig.checks``.
    """
    raw = os.environ.get("REPRO_CHECKS")
    if raw is None or raw.strip() == "":
        return configured
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"REPRO_CHECKS must be an integer sample period (0 disables), "
            f"got {raw!r}") from None
    if value <= 0:
        return CheckConfig(enabled=False)
    return CheckConfig(enabled=True, sample=value,
                       raise_on_violation=configured.raise_on_violation)


class CmpSystem:
    def __init__(self, config: SystemConfig, architecture: "NucaArchitecture",
                 check_tokens: bool = False) -> None:
        self.config = config
        checks = _effective_checks(config.checks)
        self.amap = AddressMap(config)
        self.topology = MeshTopology(config)
        self.network = Network(config, self.topology)
        self.memory = MemorySystem(config)
        self.ledger = TokenLedger(config.num_cores,
                                  checking=check_tokens or checks.enabled)
        self.l1s: List[L1Cache] = [
            L1Cache(core, config.l1.num_sets, config.l1.assoc)
            for core in range(config.num_cores)
        ]
        self.stats = StatsRegistry()
        l1_scope = self.stats.scope("l1")
        for l1 in self.l1s:
            l1_scope.mount(f"core{l1.core_id}", l1.stats)
        self.stats.mount("noc", self.network.stats)
        self.stats.mount("mem", self.memory.stats)
        self.stats.mount("coherence", self.ledger.stats)
        # Demand-access decomposition by data supplier (Figure 6): per
        # supplier an access count, a latency sum and a power-of-two
        # latency histogram, in lists indexed by ``Supplier.idx``.
        access_scope = self.stats.scope("access")
        self._access_count: List[Counter] = []
        self._access_cycles: List[Counter] = []
        self._access_hist: List[Histogram] = []
        for supplier in Supplier:
            sub = access_scope.scope(supplier.name.lower())
            self._access_count.append(sub.counter("count"))
            self._access_cycles.append(sub.counter("cycles"))
            self._access_hist.append(sub.histogram("latency"))
        # Both engines count demand accesses here, flat, and flush()
        # lands the counts in the registry: per supplier one record
        # ``[count, cycles, histogram bucket 0, bucket 1, ...]``, and
        # per core the L1 hits and misses.
        self._access_rec: List[List[int]] = [
            [0] * (2 + _HIST_BUCKETS) for _ in Supplier]
        self._l1_hits = [0] * config.num_cores
        self._l1_misses = [0] * config.num_cores
        # Event tracing (docs/observability.md, "Tracing"): the tracer
        # active at construction time is captured so the hot path pays
        # exactly one attribute check when tracing is off. Set before
        # bind() so on_bound hooks (the duel controller) see it.
        self.tracer = obs.active()
        self.trace_now = 0          # t_issue of the in-flight access
        self._trace_pid: int = 0    # this run's sim-clock pid (lazy)
        self._trace_label: str = ""
        self.architecture = architecture
        architecture.bind(self)
        l2_scope = self.stats.scope("l2")
        for bank in architecture.banks:
            l2_scope.mount(f"bank{bank.bank_id}", bank.stats)
        self.stats.mount("arch", architecture.stats)
        # Invariant checking (docs/checking.md): one ``is None`` test
        # per access when off; a full machine sweep every ``sample``
        # accesses when on.
        self.checker = None
        if checks.enabled:
            from repro.check.invariants import InvariantChecker

            self.checker = InvariantChecker(
                self, sample=checks.sample,
                raise_on_violation=checks.raise_on_violation)
            self.stats.mount("check", self.checker.stats)

    # -- event tracing -----------------------------------------------------------

    def set_tracer(self, tracer) -> object:
        """Swap this system's tracer (the supported rebinding seam —
        components capture the tracer by reference at construction, so
        installing one later must go through here). Returns the
        previous tracer; ``None`` means :data:`~repro.obs.trace.NULL_TRACER`.
        """
        previous = self.tracer
        self.tracer = tracer if tracer is not None else obs.NULL_TRACER
        self._trace_pid = 0
        self.architecture.on_tracer(self.tracer)
        return previous

    def set_trace_label(self, label: str) -> None:
        """Name this run's sim-clock trace process (e.g.
        ``"esp-nuca/apache s42"``); must be set before the first event."""
        self._trace_label = label

    def trace_pid(self) -> int:
        """This run's sim-clock trace process id (allocated lazily:
        untraced systems never register a process)."""
        if not self._trace_pid:
            label = self._trace_label or f"sim {self.architecture.name}"
            self._trace_pid = self.tracer.process(label, clock="sim")
        return self._trace_pid

    # -- demand access entry point -----------------------------------------------

    def access(self, core: int, block: int, is_write: bool, t_issue: int
               ) -> AccessOutcome:
        """One demand reference from ``core`` issued at ``t_issue``.

        Functional state is updated eagerly (the reference completes
        logically now); the returned completion time is when the data
        becomes usable by the core.
        """
        tracer = self.tracer
        if tracer.enabled:
            outcome = self._traced_access(core, block, is_write, t_issue)
        else:
            outcome = self._serve_access(core, block, is_write, t_issue)
        if self.checker is not None:
            self.checker.after_access()
        return outcome

    def _serve_access(self, core: int, block: int, is_write: bool,
                      t_issue: int) -> AccessOutcome:
        line = self.l1s[core].lookup(block)
        if line is not None:
            self._l1_hits[core] += 1
            t_done = t_issue + self.config.l1.access_latency
            if is_write:
                if line.tokens < self.ledger.total_tokens:
                    t_done = max(t_done, self.architecture.handle_upgrade(
                        core, block, line, t_issue + self.config.l1.tag_latency))
                line.dirty = True
            self._record_access(Supplier.L1_LOCAL, t_done - t_issue)
            return AccessOutcome(t_done, Supplier.L1_LOCAL)
        self._l1_misses[core] += 1
        t_miss = t_issue + self.config.l1.tag_latency
        t_done, supplier = self.architecture.handle_miss(core, block,
                                                         is_write, t_miss)
        self._record_access(supplier, t_done - t_issue)
        return AccessOutcome(t_done, supplier)

    def _traced_access(self, core: int, block: int, is_write: bool,
                       t_issue: int) -> AccessOutcome:
        """The access path with tracing live: publish the in-flight
        timestamp (functional-path instants use it), open a child-span
        context on the architecture when this access is sampled, and
        record the demand span once the outcome is known."""
        tracer = self.tracer
        self.trace_now = t_issue
        sampled = tracer.wants("access") and tracer.sample_step()
        if sampled:
            self.architecture._trace_ctx = obs.SpanContext(
                tracer, self.trace_pid())
            try:
                outcome = self._serve_access(core, block, is_write, t_issue)
            finally:
                self.architecture._trace_ctx = None
            tracer.complete(
                "access", "write" if is_write else "read",
                ts=t_issue, dur=outcome.complete - t_issue,
                pid=self.trace_pid(), tid=f"core{core}",
                args={"block": f"{block:#x}",
                      "supplier": outcome.supplier.value})
            return outcome
        return self._serve_access(core, block, is_write, t_issue)

    def _record_access(self, supplier: Supplier, latency: int) -> None:
        rec = self._access_rec[supplier.idx]
        rec[0] += 1
        rec[1] += latency
        bucket = latency.bit_length() + 2
        if bucket >= len(rec):
            bucket = len(rec) - 1
        rec[bucket] += 1

    # -- helpers used by architectures ---------------------------------------------

    def l1_fill(self, core: int, block: int, tokens: int, dirty: bool,
                t: int = 0) -> L1Line:
        """Install a line in ``core``'s L1, routing any displaced line
        into the L2 per the architecture's eviction policy. ``t`` is the
        cycle the fill happens (the serving access's completion time);
        eviction traffic it triggers is charged then, not at t=0."""
        if tokens <= 0:
            raise ValueError("an L1 fill needs at least one token")
        line, evicted, merged = self.l1s[core].fill(block, tokens, dirty)
        if not merged:
            # Fresh line; fill() merges into an existing (already
            # registered) line otherwise.
            self.ledger.register_l1(block, core, line)
        if evicted is not None:
            self.architecture.route_l1_eviction(core, evicted, t)
        return line

    def send_to_memory(self, block: int, tokens: int, dirty: bool,
                       router: int, t: int = 0) -> None:
        """Release tokens from an evicted/refused copy at cycle ``t``.

        Token coherence lets evicted tokens be forwarded to any current
        holder, and doing so matters: parking them in memory while L1
        copies remain would force a later writer into an off-chip
        round trip just to collect them. So: merge into an on-chip L1
        holder if one exists, else into an L2 copy, else write back to
        memory (the only case generating off-chip traffic).
        """
        state = self.ledger.state(block)
        if state.l1:
            line = next(iter(state.l1.values()))
            line.tokens += tokens
            line.dirty = line.dirty or dirty
            return
        if state.l2:
            held = state.l2[0]
            held.tokens += tokens
            held.dirty = held.dirty or dirty
            return
        if dirty:
            mc, _ = self.topology.controller_hops(router)
            self.memory.controller(mc).post_writeback(t)
        self.ledger.give_to_memory(block, tokens)
        # Both copy lists were empty above: no copy is left on chip.
        self.architecture.on_block_left_chip(block)

    def flush(self) -> None:
        """Land every flat count in the registry counters.

        The timing methods and the demand-access path count into flat
        arrays (docs/engine.md, "Contention timing"); this is the one
        place they reach the registry. It runs at the only points that
        read the registry — :meth:`reset_stats`, :attr:`result` and
        :meth:`finalize` — and is idempotent.
        """
        self.network.flush()
        self.memory.flush()
        for idx, rec in enumerate(self._access_rec):
            count = rec[0]
            if not count:
                continue
            cycles = rec[1]
            self._access_count[idx].value += count
            self._access_cycles[idx].value += cycles
            hist = self._access_hist[idx]
            hist.count += count
            hist.total += cycles
            buckets = hist.buckets
            for i in range(_HIST_BUCKETS):
                if rec[2 + i]:
                    buckets[i] += rec[2 + i]
                    rec[2 + i] = 0
            rec[0] = rec[1] = 0
        hits = self._l1_hits
        misses = self._l1_misses
        for core, l1 in enumerate(self.l1s):
            l1._hits.value += hits[core]
            l1._misses.value += misses[core]
            hits[core] = misses[core] = 0

    def reset_stats(self) -> None:
        """Clear all statistics while keeping cache/coherence state —
        used to exclude the warm-up phase from measurements.

        One flush, so no warm-up count is left to land later, then one
        registry walk: every mounted component scope (banks, L1s,
        links, controllers, token ledger, duel controller, policy
        counters) is zeroed, so a newly added component cannot be
        forgotten here. Mechanism state (duel EMAs, ``nmax``, ASR
        levels) is deliberately *not* stored in the registry and
        survives — resetting it would change simulated behaviour.
        """
        self.flush()
        self.stats.reset()

    # -- snapshots ---------------------------------------------------------------------

    @property
    def result(self) -> SimResult:
        """Live aggregate view of the registry (cheap, rebuilt per read;
        flushes first).

        Timing totals (``cycles``/``instructions``) belong to the
        engine and appear only in the result built by :meth:`finalize`.
        """
        self.flush()
        get = self.stats.get
        result = SimResult(architecture=self.architecture.name)
        result.supplier_count = {s: self._access_count[s.idx].value
                                 for s in Supplier}
        result.supplier_cycles = {s: self._access_cycles[s.idx].value
                                  for s in Supplier}
        result.memory_accesses = sum(result.supplier_count.values())
        cores = range(len(self.l1s))
        result.l1_hits = sum(get(f"l1.core{c}.hits").value for c in cores)
        result.l1_misses = sum(get(f"l1.core{c}.misses").value
                               for c in cores)
        for bank in self.architecture.banks:
            result.l2_hits += bank.total_hits
            result.l2_demand_lookups += bank.total_hits + bank.misses
        mcs = range(len(self.memory.controllers))
        result.offchip_demand = sum(get(f"mem.mc{i}.demand").value
                                    for i in mcs)
        result.offchip_writebacks = sum(get(f"mem.mc{i}.writebacks").value
                                        for i in mcs)
        result.noc_messages = get("noc.messages").value
        result.noc_queueing = get("noc.queueing").value
        return result

    # -- end-of-run aggregation -------------------------------------------------------

    def finalize(self, per_core_cycles: List[int],
                 per_core_instructions: List[int]) -> SimResult:
        result = self.result
        result.per_core_cycles = list(per_core_cycles)
        result.per_core_instructions = list(per_core_instructions)
        result.cycles = max(per_core_cycles) if per_core_cycles else 0
        result.instructions = sum(per_core_instructions)
        result.stats = self.stats.to_dict()
        return result

    # -- introspection (tests, examples) ------------------------------------------------

    def l2_occupancy(self) -> int:
        return sum(bank.occupancy() for bank in self.architecture.banks)

    def check_invariants(self) -> None:
        """Full token-conservation and directory cross-check."""
        self.ledger.check_all()
        for block in list(self.ledger.known_blocks()):
            state = self.ledger.state(block)
            for core, line in state.l1.items():
                resident = self.l1s[core].lookup(block, touch=False)
                assert resident is line, (
                    f"ledger/L1 divergence for block {block:#x} at core {core}")
            for line in state.l2:
                bank = self.architecture.banks[line.bank_id]
                found = bank.peek(line.set_index, block)
                assert (found is not None and 0 <= line.way < bank.ways
                        and bank.lines[line.set_index][line.way] is line), (
                    f"ledger/L2 divergence for block {block:#x} "
                    f"in bank {line.bank_id}")

    # -- teardown ----------------------------------------------------------------------

    def close(self) -> None:
        """Release the finished run: break the reference cycles between
        the system, its architecture, banks and checker, so plain
        reference counting frees the whole machine the moment the last
        outside reference goes (the cyclic collector never has to find
        it). The system is unusable afterwards; results already taken
        (``finalize``) are independent of it."""
        architecture = self.architecture
        if architecture is not None:
            architecture.close()
        self.checker = None
        self.architecture = None
