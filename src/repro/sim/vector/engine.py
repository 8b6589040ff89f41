"""Epoch-batched simulation engine (docs/engine.md).

Identical simulated machine, different schedule. The reference engine
interleaves every memory reference of every core through one heap; this
engine observes that most references are *local* — L1 read hits, and
write hits holding all coherence tokens — which touch nothing outside
their own core (own L1 LRU/dirty bits, own timing state, commutative
counters). Between two *contention points* (L1 misses and token
upgrades, which traverse shared banks, the NoC, the ledger and the
policy machinery), local runs from different cores commute, so they can
be committed in uninterrupted batches instead of round-tripping through
the heap per reference.

The schedule per epoch:

1. **classify + scout** — for each core whose classification was
   invalidated, walk its upcoming references against current L1 state
   to find the maximal local run, simulating core timing on scratch
   state (an exact port of :class:`~repro.sim.cpu.CoreModel`); the
   clock after the run is the core's *park key* — the heap key at which
   its next contention point would fire.
2. **owner** — the minimum (park clock, core id) over active cores,
   K*, is globally the next contention in reference order.
3. **bounded commits** — every other core commits the prefix of its
   local run whose keys order strictly before K* (a write hit's dirty
   bit must be visible to a later contention, and must not be visible
   to an earlier one).
4. **full commit + serve** — the owner commits its entire run (its own
   references are FIFO, so its locals precede its contention at any
   key), then its contention reference is served inline through the
   live architecture's miss/upgrade methods — the same timing methods
   and flat statistics arrays the reference engine uses.
5. **journal drain** — the contention may have changed L1 membership or
   taken L1 tokens; the :class:`~repro.sim.vector.mirror.MirrorJournal`
   names the affected cores, whose classifications are invalidated.

Runs with live tracing or an invariant checker fall back to the
reference schedule (``super()._run_phase``): those
observers sample machine state *between individual references*, which
batching would skip past. Statistics for batched hits are applied in
bulk to the same flat counts the reference path writes, which the
system flushes at its snapshot points, so snapshots stay byte-identical
(tests/test_engine_equivalence.py).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Iterator, List, Optional, Sequence

from repro.common.statsreg import _HIST_BUCKETS
from repro.sim.cpu import TraceColumns, TraceItem
from repro.sim.engine import SimulationEngine
from repro.sim.request import Supplier
from repro.sim.system import CmpSystem
from repro.sim.vector import soa
from repro.sim.vector.mirror import MirrorJournal


class VectorizedEngine(SimulationEngine):
    """Drop-in engine producing byte-identical results to the reference.

    Traces are materialized up front (the engine needs random access
    for classification) as :class:`~repro.sim.cpu.TraceColumns`:
    column traces are adopted as they are — the executor's memo hands
    the same objects to every point of a (workload, seed) — and any
    other trace is converted once.
    """

    def __init__(self, system: CmpSystem,
                 traces: Sequence[Optional[Iterator[TraceItem]]]) -> None:
        columns = [t if t is None or isinstance(t, TraceColumns)
                   else TraceColumns.from_items(t) for t in traces]
        super().__init__(system, columns)
        n = len(columns)
        self._pos = [0] * n
        self._journal: Optional[MirrorJournal] = None
        self._run_len = [0] * n
        self._park_clock = [0] * n
        self._scout: List[Optional[tuple]] = [None] * n
        # Reusable per-core scratch (cleared at each classification):
        # the blocks of the classified run, and the L1 line object per
        # run reference (None where the bulk path skipped the probe).
        self._run_blocks: List[set] = [set() for _ in range(n)]
        self._run_lines: List[list] = [[] for _ in range(n)]
        self._limit = [0] * n
        # Hot-path state hoisted into flat per-core lists: the epoch
        # loop, classifier and serve path index these instead of
        # chasing object attributes per reference.
        self._blocks = [t.blocks if t is not None else None
                        for t in columns]
        self._writes = [t.writes if t is not None else None
                        for t in columns]
        self._gaps = [t.gaps if t is not None else None
                      for t in columns]
        self._deps = [t.deps if t is not None else None
                      for t in columns]
        self._l1s = system.l1s
        self._l1_sets = [l1._sets for l1 in system.l1s]
        self._l1_nsets = [l1.num_sets for l1 in system.l1s]
        self._total_tokens = system.ledger.total_tokens
        self._handle_miss = system.architecture.handle_miss
        self._handle_upgrade = system.architecture.handle_upgrade
        self._l1_lat = system.config.l1.access_latency
        self._l1_tag = system.config.l1.tag_latency
        core_cfg = system.config.core
        self._iw = core_cfg.issue_width
        self._win = core_cfg.window_size
        self._mo = core_cfg.max_outstanding
        self._l1_bucket = min(self._l1_lat.bit_length(), _HIST_BUCKETS - 1)
        # The system's flat demand-access counts (CmpSystem.flush lands
        # them in the registry).
        self._access_rec = system._access_rec
        self._rec_local = system._access_rec[Supplier.L1_LOCAL.idx]
        self._l1_hits = system._l1_hits
        self._l1_misses = system._l1_misses
        # Core timing state (CoreModel.clock/instructions/stall_cycles/
        # memory_refs/_outstanding) hoisted into flat per-core lists for
        # the span of a fast phase; loaded from and resynchronized to
        # the live CoreModel objects at the phase boundaries.
        self._clock_v = [0] * n
        self._instr_v = [0] * n
        self._stall_v = [0] * n
        self._mem_v = [0] * n
        self._out_v: List[deque] = [deque() for _ in range(n)]

    # -- reference-path integration ------------------------------------------

    def _next_item(self, core_id: int) -> Optional[TraceItem]:
        # The fallback heap loop consumes via this hook; positions are
        # shared with the fast path so phases can never double-process.
        trace = self.traces[core_id]
        if trace is None:
            return None
        pos = self._pos[core_id]
        if pos >= len(trace):
            self.traces[core_id] = None
            return None
        self._pos[core_id] = pos + 1
        return trace.item(pos)

    def _run_phase(self, cap: Optional[int]) -> None:
        if self.system.tracer.enabled or self.system.checker is not None:
            # Observers need reference granularity (docs/engine.md,
            # "Fallback"); results are identical either way.
            super()._run_phase(cap)
            return
        self._run_phase_fast(cap)

    # -- the epoch loop ------------------------------------------------------

    def _run_phase_fast(self, cap: Optional[int]) -> None:
        system = self.system
        cores = self.cores
        ncores = len(cores)
        journal = self._journal
        if journal is None:
            journal = MirrorJournal(ncores, system.ledger.total_tokens)
            self._journal = journal
        journal.install(system.l1s, system.ledger)
        # Load core timing state into the flat per-phase lists; the
        # ``finally`` below writes them back so the CoreModel objects
        # are authoritative again whenever observers can look (between
        # phases, and on any exception).
        clocks = self._clock_v
        instrs_v = self._instr_v
        stalls_v = self._stall_v
        mems_v = self._mem_v
        outs_v = self._out_v
        for cid in range(ncores):
            c = cores[cid]
            clocks[cid] = c.clock
            instrs_v[cid] = c.instructions
            stalls_v[cid] = c.stall_cycles
            mems_v[cid] = c.memory_refs
            outs_v[cid] = c._outstanding
        try:
            limits = self._limit
            pos = self._pos
            run_len = self._run_len
            need: List[int] = []
            for cid in range(ncores):
                trace = self.traces[cid]
                if trace is None:
                    limits[cid] = pos[cid]
                    continue
                limits[cid] = (len(trace) if cap is None
                               else min(cap, len(trace)))
                if pos[cid] < limits[cid]:
                    need.append(cid)
            vers = [0] * ncores
            park_heap: List[tuple] = []
            commit_heap: List[tuple] = []
            # Per-phase constants hoisted out of the serve burst.
            l1s = self._l1s
            total = self._total_tokens
            iw = self._iw
            win = self._win
            mo = self._mo
            l1_lat = self._l1_lat
            l1_tag = self._l1_tag
            handle_miss = self._handle_miss
            handle_upgrade = self._handle_upgrade
            dirty_set = journal.dirty   # mutated in place, never rebound
            sup_rec = self._access_rec
            rec_local = self._rec_local
            hits_c = self._l1_hits
            misses_c = self._l1_misses
            while True:
                for cid in need:
                    self._classify_and_scout(cid)
                    v = vers[cid]
                    heappush(park_heap, (self._park_clock[cid], cid, v))
                    if run_len[cid]:
                        heappush(commit_heap, (clocks[cid], cid, v))
                need = []
                owner = -1
                while park_heap:
                    kc, cid, v = heappop(park_heap)
                    if v == vers[cid]:
                        owner = cid
                        break
                if owner < 0:
                    break
                while commit_heap:
                    ck, cid, v = commit_heap[0]
                    if v != vers[cid]:
                        heappop(commit_heap)
                        continue
                    if not (ck < kc or (ck == kc and cid < owner)):
                        break
                    heappop(commit_heap)
                    if cid == owner:
                        continue
                    self._commit_bounded(cid, kc, owner)
                    if run_len[cid]:
                        heappush(commit_heap,
                                 (clocks[cid], cid, vers[cid]))
                if run_len[owner]:
                    self._commit_full(owner)
                vers[owner] += 1
                if pos[owner] >= limits[owner]:
                    continue
                parked = False
                # Serve burst: the freshly popped owner is the global
                # minimum, and misses cluster, so it usually stays the
                # minimum across several serves. Keep serving it
                # without heap churn while (a) nothing got dirtied —
                # re-classification only ever moves park keys earlier,
                # so it must precede owner selection — and (b) no valid
                # parked core orders before the owner. Short local
                # stretches are served eagerly too (their effects stay
                # on the owner's own L1, so they commute with
                # everything the heaps defer); runs longer than a small
                # streak fall back to the classifier so the bulk numpy
                # path keeps owning high-hit phases. Core timing state
                # lives in locals across the whole burst and is stored
                # back once at the end.
                blocks = self._blocks[owner]
                writes = self._writes[owner]
                gaps = self._gaps[owner]
                deps = self._deps[owner]
                l1_sets = self._l1_sets[owner]
                nsets = self._l1_nsets[owner]
                l1 = l1s[owner]
                clock = clocks[owner]
                instr = instrs_v[owner]
                stalls = stalls_v[owner]
                mem = mems_v[owner]
                out = outs_v[owner]
                p = pos[owner]
                limit = limits[owner]
                streak = 0
                while True:
                    block = blocks[p]
                    line = l1_sets[block % nsets].get(block)
                    local = line is not None and (not writes[p]
                                                  or line.tokens == total)
                    if local and streak >= 16:
                        # Long local run: hand off to the classifier,
                        # whose bulk numpy path owns high-hit stretches.
                        break
                    # Owner must be confirmed the global minimum BEFORE
                    # each serve: an earlier-keyed parked core's serve
                    # may steal tokens from (or invalidate) the very
                    # line this probe saw. (On the first iteration the
                    # check trivially passes — the owner was just
                    # popped as the minimum.)
                    while (park_heap
                           and park_heap[0][2] != vers[park_heap[0][1]]):
                        heappop(park_heap)
                    if park_heap:
                        pk = park_heap[0]
                        if pk[0] < clock or (pk[0] == clock
                                             and pk[1] < owner):
                            if local:
                                # Classify instead: a scout run lets
                                # other cores commit around us.
                                break
                            # Another core orders first. The probe
                            # above already said the next reference is
                            # contention — exactly what a fresh
                            # classification's first-probe would
                            # conclude — so park directly on
                            # (clock, owner) without the
                            # _classify_and_scout round trip.
                            self._run_len[owner] = 0
                            self._park_clock[owner] = clock
                            self._scout[owner] = None
                            heappush(park_heap, (clock, owner,
                                                 vers[owner]))
                            parked = True
                            break
                    # Bounded commits drain before contention serves
                    # only: a local serve touches nothing but the
                    # owner's own L1 lines and deferred sums, so it
                    # commutes with other cores' local-run commits.
                    if not local:
                        while commit_heap:
                            ck, ccid, cv = commit_heap[0]
                            if cv != vers[ccid]:
                                heappop(commit_heap)
                                continue
                            if not (ck < clock
                                    or (ck == clock and ccid < owner)):
                                break
                            heappop(commit_heap)
                            self._commit_bounded(ccid, clock, owner)
                            if run_len[ccid]:
                                heappush(commit_heap,
                                         (clocks[ccid], ccid,
                                          vers[ccid]))
                    # --- timing step: exact CoreModel port (keep in
                    # sync with repro/sim/cpu.py; also mirrored in
                    # _classify_and_scout) ---
                    gap = gaps[p]
                    if gap:
                        instr += gap
                        clock += -(-gap // iw)
                        while out and out[0][0] <= clock:
                            out.popleft()
                        while out and instr - out[0][1] >= win:
                            when = out[0][0]
                            if when > clock:
                                stalls += when - clock
                                clock = when
                            while out and out[0][0] <= clock:
                                out.popleft()
                    # --- serve: exact port of the reference access
                    # path — L1 hit effects from L1Cache.lookup,
                    # miss/upgrade policy through the live architecture
                    # methods (keep in sync with repro/sim/system.py
                    # _serve_access/_record_access). ---
                    if line is not None:
                        stamp = l1._stamp + 1
                        l1._stamp = stamp
                        line.lru = stamp
                        line.reused = True
                        hits_c[owner] += 1
                        t_done = clock + l1_lat
                        if writes[p]:
                            if line.tokens < total:
                                t_up = handle_upgrade(owner, block, line,
                                                      clock + l1_tag)
                                if t_up > t_done:
                                    t_done = t_up
                            line.dirty = True
                        rec = rec_local
                    else:
                        misses_c[owner] += 1
                        t_done, supplier = handle_miss(owner, block,
                                                       writes[p],
                                                       clock + l1_tag)
                        rec = sup_rec[supplier.idx]
                    latency = t_done - clock
                    rec[0] += 1
                    rec[1] += latency
                    bucket = latency.bit_length() + 2
                    if bucket >= len(rec):
                        bucket = len(rec) - 1
                    rec[bucket] += 1
                    # --- completion step: exact CoreModel port
                    # (continued) ---
                    instr += 1
                    mem += 1
                    while out and out[0][0] <= clock:
                        out.popleft()
                    while len(out) >= mo:
                        earliest = min(out)[0]
                        if earliest > clock:
                            stalls += earliest - clock
                            clock = earliest
                        while out and out[0][0] <= clock:
                            out.popleft()
                        before = len(out)
                        out = deque(q for q in out if q[0] > clock)
                        if len(out) == before:  # pragma: no cover - guard
                            break
                    if deps[p]:
                        if t_done > clock:
                            stalls += t_done - clock
                            clock = t_done
                        while out and out[0][0] <= clock:
                            out.popleft()
                    else:
                        out.append((t_done, instr))
                        while out and instr - out[0][1] >= win:
                            when = out[0][0]
                            if when > clock:
                                stalls += when - clock
                                clock = when
                            while out and out[0][0] <= clock:
                                out.popleft()
                    # --- end timing step ---
                    p += 1
                    if p >= limit:
                        break
                    if local:
                        # A hit cannot change membership or tokens
                        # anywhere, so no dirty check is needed.
                        streak += 1
                    else:
                        streak = 0
                        if dirty_set:
                            break
                clocks[owner] = clock
                instrs_v[owner] = instr
                stalls_v[owner] = stalls
                mems_v[owner] = mem
                outs_v[owner] = out
                pos[owner] = p
                if not parked and p < limit:
                    need.append(owner)
                if dirty_set:
                    self._requeue_dirty(dirty_set, owner, vers, need)
        finally:
            journal.uninstall(system.l1s, system.ledger)
            for cid in range(ncores):
                c = cores[cid]
                c.clock = clocks[cid]
                c.instructions = instrs_v[cid]
                c.stall_cycles = stalls_v[cid]
                c.memory_refs = mems_v[cid]
                c._outstanding = outs_v[cid]
            # Per-serve progress bookkeeping is deferred to here:
            # ``_refs``/``_processed`` are only read between phases.
            refs = self._refs
            for cid in range(ncores):
                if pos[cid] != refs[cid]:
                    self._processed += pos[cid] - refs[cid]
                    refs[cid] = pos[cid]

    def _requeue_dirty(self, dirty: set, owner: int, vers: List[int],
                       need: List[int]) -> None:
        """Invalidate and requeue classified runs touched by the
        owner's serves. Parked-at-contention cores keep an exact park
        key (timing of committed refs only); their contention is
        re-examined at serve time through the full reference path."""
        run_len = self._run_len
        pos = self._pos
        limits = self._limit
        journal = self._journal
        for cid in dirty:
            if (cid == owner or self.traces[cid] is None
                    or run_len[cid] == 0 or pos[cid] >= limits[cid]):
                continue
            vers[cid] += 1
            journal.runs[cid] = None
            need.append(cid)
        dirty.clear()

    # -- classification + scout timing walk ----------------------------------

    def _classify_and_scout(self, cid: int) -> None:
        pos = self._pos[cid]
        blocks = self._blocks[cid]
        writes = self._writes[cid]
        sets = self._l1_sets[cid]
        nsets = self._l1_nsets[cid]
        total = self._total_tokens
        # Cheap first-reference probe: contention-parked cores (the
        # common case on miss-heavy phases) never pay the scratch-state
        # copy below.
        block = blocks[pos]
        line = sets[block % nsets].get(block)
        if line is None or (writes[pos] and line.tokens != total):
            self._run_len[cid] = 0
            self._park_clock[cid] = self._clock_v[cid]
            self._scout[cid] = None
            self._journal.runs[cid] = None
            return
        trace = self.traces[cid]
        limit = self._limit[cid]
        journal = self._journal
        gaps = trace.gaps
        deps = trace.deps
        iw = self._iw
        win = self._win
        mo = self._mo
        l1_lat = self._l1_lat
        clock = self._clock_v[cid]
        instr = self._instr_v[cid]
        stalls = self._stall_v[cid]
        mem = self._mem_v[cid]
        out = deque(self._out_v[cid])
        run_blocks = self._run_blocks[cid]
        run_blocks.clear()
        add_block = run_blocks.add
        run_lines = self._run_lines[cid]
        run_lines.clear()
        add_line = run_lines.append
        # Scalar membership probes with a bulk escape hatch: once 64
        # consecutive references classify local, upcoming chunks are
        # classified in one numpy pass over the SoA columns (high-hit
        # traces spend almost no time probing; miss-heavy traces never
        # reach the streak and never pay the numpy fixed costs).
        streak = 0
        bulk_until = pos
        i = pos
        while i < limit:
            block = blocks[i]
            line = None
            if i >= bulk_until:
                if streak >= 64 and limit - i >= 128:
                    chunk = min(i + 1024, limit) - i
                    known = soa.local_prefix_length(
                        trace, i, i + chunk,
                        journal.resident_array(cid), journal.full_array(cid))
                    if known is not None:
                        if known < chunk:
                            # The chunk contains a (possibly
                            # conservative) stop; demand a fresh streak
                            # before scanning again.
                            streak = 0
                        if known == 0:
                            break
                        bulk_until = i + known
                if i >= bulk_until:
                    line = sets[block % nsets].get(block)
                    if line is None or (writes[i] and line.tokens != total):
                        break
                    streak += 1
            add_block(block)
            add_line(line)  # None in bulk regions: committed via lookup
            # --- timing step: exact CoreModel port (keep in sync with
            # repro/sim/cpu.py; also mirrored in _commit_bounded) ---
            gap = gaps[i]
            if gap:
                instr += gap
                clock += -(-gap // iw)
                while out and out[0][0] <= clock:
                    out.popleft()
                while out and instr - out[0][1] >= win:
                    when = out[0][0]
                    if when > clock:
                        stalls += when - clock
                        clock = when
                    while out and out[0][0] <= clock:
                        out.popleft()
            complete = clock + l1_lat
            instr += 1
            mem += 1
            while out and out[0][0] <= clock:
                out.popleft()
            while len(out) >= mo:
                earliest = min(out)[0]
                if earliest > clock:
                    stalls += earliest - clock
                    clock = earliest
                while out and out[0][0] <= clock:
                    out.popleft()
                before = len(out)
                out = deque(p for p in out if p[0] > clock)
                if len(out) == before:  # pragma: no cover - guard
                    break
            if deps[i]:
                if complete > clock:
                    stalls += complete - clock
                    clock = complete
                while out and out[0][0] <= clock:
                    out.popleft()
            else:
                out.append((complete, instr))
                while out and instr - out[0][1] >= win:
                    when = out[0][0]
                    if when > clock:
                        stalls += when - clock
                        clock = when
                    while out and out[0][0] <= clock:
                        out.popleft()
            # --- end timing step ---
            i += 1
        self._run_len[cid] = i - pos
        self._park_clock[cid] = clock
        self._scout[cid] = (clock, instr, stalls, mem, out)
        journal.runs[cid] = run_blocks if i > pos else None

    # -- committing local runs -----------------------------------------------

    def _commit_full(self, cid: int) -> None:
        """Apply the whole classified run: functional effects per
        reference, timing state assigned from the scout walk."""
        n = self._run_len[cid]
        if n == 0:
            return
        pos = self._pos[cid]
        trace = self.traces[cid]
        blocks = trace.blocks
        writes = trace.writes
        l1 = self.system.l1s[cid]
        sets = l1._sets
        nsets = l1.num_sets
        stamp = l1._stamp
        run_lines = self._run_lines[cid]
        for i in range(pos, pos + n):
            line = run_lines[i - pos]
            if line is None:  # classified by the bulk path: look up now
                block = blocks[i]
                line = sets[block % nsets][block]
            stamp += 1
            line.lru = stamp
            line.reused = True
            if writes[i]:
                line.dirty = True
        l1._stamp = stamp
        (self._clock_v[cid], self._instr_v[cid], self._stall_v[cid],
         self._mem_v[cid], self._out_v[cid]) = self._scout[cid]
        self._scout[cid] = None
        self._run_len[cid] = 0
        self._journal.runs[cid] = None
        self._flush_committed(cid, l1, n, pos + n)

    def _commit_bounded(self, cid: int, kc: int, kcid: int) -> None:
        """Commit run references whose keys order strictly before the
        owner's park key ``(kc, kcid)``; timing replayed per reference
        (the walk is deterministic, so a later full commit of the
        remainder still lands exactly on the scout state)."""
        n = self._run_len[cid]
        trace = self.traces[cid]
        gaps = trace.gaps
        blocks = trace.blocks
        writes = trace.writes
        deps = trace.deps
        l1 = self.system.l1s[cid]
        sets = l1._sets
        nsets = l1.num_sets
        stamp = l1._stamp
        run_lines = self._run_lines[cid]
        iw = self._iw
        win = self._win
        mo = self._mo
        l1_lat = self._l1_lat
        clock = self._clock_v[cid]
        instr = self._instr_v[cid]
        stalls = self._stall_v[cid]
        mem = self._mem_v[cid]
        out = self._out_v[cid]
        pos = self._pos[cid]
        end = pos + n
        i = pos
        while i < end and (clock < kc or (clock == kc and cid < kcid)):
            # --- timing step: exact CoreModel port (keep in sync with
            # repro/sim/cpu.py; also mirrored in _classify_and_scout) ---
            gap = gaps[i]
            if gap:
                instr += gap
                clock += -(-gap // iw)
                while out and out[0][0] <= clock:
                    out.popleft()
                while out and instr - out[0][1] >= win:
                    when = out[0][0]
                    if when > clock:
                        stalls += when - clock
                        clock = when
                    while out and out[0][0] <= clock:
                        out.popleft()
            complete = clock + l1_lat
            instr += 1
            mem += 1
            while out and out[0][0] <= clock:
                out.popleft()
            while len(out) >= mo:
                earliest = min(out)[0]
                if earliest > clock:
                    stalls += earliest - clock
                    clock = earliest
                while out and out[0][0] <= clock:
                    out.popleft()
                before = len(out)
                out = deque(p for p in out if p[0] > clock)
                if len(out) == before:  # pragma: no cover - guard
                    break
            if deps[i]:
                if complete > clock:
                    stalls += complete - clock
                    clock = complete
                while out and out[0][0] <= clock:
                    out.popleft()
            else:
                out.append((complete, instr))
                while out and instr - out[0][1] >= win:
                    when = out[0][0]
                    if when > clock:
                        stalls += when - clock
                        clock = when
                    while out and out[0][0] <= clock:
                        out.popleft()
            # --- end timing step ---
            line = run_lines[i - pos]
            if line is None:  # classified by the bulk path: look up now
                block = blocks[i]
                line = sets[block % nsets][block]
            stamp += 1
            line.lru = stamp
            line.reused = True
            if writes[i]:
                line.dirty = True
            i += 1
        committed = i - pos
        if not committed:
            return
        l1._stamp = stamp
        self._clock_v[cid] = clock
        self._instr_v[cid] = instr
        self._stall_v[cid] = stalls
        self._mem_v[cid] = mem
        self._out_v[cid] = out
        self._run_len[cid] = n - committed
        if self._run_len[cid] == 0:
            self._scout[cid] = None
            self._journal.runs[cid] = None
        else:
            # Keep the cached-line list aligned with the new run start.
            del run_lines[:committed]
        self._flush_committed(cid, l1, committed, i)

    def _flush_committed(self, cid: int, l1, n: int, new_pos: int) -> None:
        """Batched equivalent of n reference-path L1 hits' statistics.

        Every local reference records Supplier.L1_LOCAL with a constant
        latency (the L1 access latency), so the counter and histogram
        updates fold to one addition each — into the *same flat counts*
        the reference path uses, so warm-up resets and finalize
        snapshots need no special handling.
        """
        lat = self._l1_lat
        self._l1_hits[cid] += n
        rec = self._rec_local
        rec[0] += n
        rec[1] += n * lat
        rec[2 + self._l1_bucket] += n
        self._pos[cid] = new_pos
