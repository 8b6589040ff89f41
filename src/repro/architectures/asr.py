"""Adaptive Selective Replication (ASR, Beckmann et al. [3]) — Section 6.1.

ASR starts from private L2s but replicates *shared read* blocks into
the local partition only probabilistically, with a per-core replication
level adapted at run time from a cost/benefit estimate:

* **benefit** of replication — local replica hits that would otherwise
  have been remote (counted directly, weighted by the latency gap);
* **cost** of replication — extra misses caused by the capacity that
  replicas consume (estimated by re-touches of recently evicted
  non-replica blocks, a victim-tag-buffer style sample).

Every epoch each core compares the two and moves its replication level
one step up or down through {0, 1/4, 1/2, 3/4, 1} (the paper's level
set). This is a behaviourally faithful simplification of ASR's paired
SPR benefit/cost counters — documented in DESIGN.md; the paper's own
finding (ASR tracks a plain private cache on most suites) is what the
mechanism reproduces.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, List, Tuple

from repro.architectures.private import TiledPrivate
from repro.cache.block import BlockClass, L2Line
from repro.cache.l1 import L1Line
from repro.common.config import SystemConfig
from repro.sim.request import Supplier

#: Replication probability levels (paper: 0, 1/4, 1/2, 3/4, 1).
LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


class AdaptiveSelectiveReplication(TiledPrivate):
    name = "asr"

    def __init__(self, config: SystemConfig, epoch: int = 4096,
                 victim_tags: int = 512, initial_level: int = 2) -> None:
        super().__init__(config)
        self.epoch = epoch
        self.victim_tag_depth = victim_tags
        self.initial_level = initial_level

    def bind(self, system) -> None:
        super().bind(system)
        n = self.config.num_cores
        self.level_index: List[int] = [self.initial_level] * n
        self._rng = random.Random(0xA5A5)
        # Per-core epoch counters.
        self._events: List[int] = [0] * n
        self._replica_hits: List[int] = [0] * n
        self._remote_shared_hits: List[int] = [0] * n
        self._capacity_recaptures: List[int] = [0] * n
        # Recently evicted non-replica blocks (victim-tag sample).
        self._victim_tags: List[Deque[int]] = [
            deque(maxlen=self.victim_tag_depth) for _ in range(n)]
        self._victim_sets: List[set] = [set() for _ in range(n)]
        # Observability: per-core replication level (a gauge — the level
        # itself is mechanism state and survives warm-up reset) and the
        # number of adaptation steps taken.
        repl = self.stats.scope("replication")
        self._level_changes = repl.counter("level_changes")
        self._level_gauges = [repl.scope(f"core{c}").gauge("level_index")
                              for c in range(n)]
        for c in range(n):
            self._level_gauges[c].set(self.level_index[c])

    @property
    def level_changes(self) -> int:
        return self._level_changes.value

    # -- level bookkeeping -------------------------------------------------------

    def replication_probability(self, core: int) -> float:
        return LEVELS[self.level_index[core]]

    def _adapt(self, core: int) -> None:
        remote_gap = 2 * self.config.noc.hop_latency * 2  # remote round trip
        miss_penalty = self.config.mem.latency
        benefit = self._replica_hits[core] * remote_gap
        growth = self._remote_shared_hits[core] * remote_gap
        cost = self._capacity_recaptures[core] * miss_penalty
        index = self.level_index[core]
        if cost > benefit and index > 0:
            index -= 1
            self._level_changes.value += 1
        elif growth > cost and index < len(LEVELS) - 1:
            index += 1
            self._level_changes.value += 1
        self.level_index[core] = index
        self._level_gauges[core].set(index)
        self._events[core] = 0
        self._replica_hits[core] = 0
        self._remote_shared_hits[core] = 0
        self._capacity_recaptures[core] = 0

    # -- hooks into the private-cache flow ---------------------------------------------

    def handle_miss(self, core: int, block: int, is_write: bool, t: int
                    ) -> Tuple[int, Supplier]:
        # Victim-tag recapture: a miss on a recently evicted first-class
        # block is evidence replicas are squeezing the local partition.
        if block in self._victim_sets[core]:
            self._victim_sets[core].discard(block)
            self._capacity_recaptures[core] += 1
        t_done, supplier = super().handle_miss(core, block, is_write, t)
        if supplier is Supplier.L2_REMOTE or supplier is Supplier.L1_REMOTE:
            self._remote_shared_hits[core] += 1
        # One adaptation event per miss; every ``epoch`` of them the
        # core re-weighs its replication level.
        events = self._events
        events[core] += 1
        if events[core] >= self.epoch:
            self._adapt(core)
        return t_done, supplier

    def _on_local_hit(self, core: int, entry) -> None:
        if entry.replica:
            self._replica_hits[core] += 1

    # -- selective replication on writeback ---------------------------------------------

    def route_l1_eviction(self, core: int, line: L1Line, t: int = 0) -> None:
        block = line.block
        state = self.ledger.state(block)
        other_copies = state.held_elsewhere(core)
        if not other_copies:
            # Sole copy: the owner keeps it locally (the "home" copy).
            super().route_l1_eviction(core, line, t)
            return
        tokens = self.ledger.take_from_l1(block, core)
        if self._rng.random() < self.replication_probability(core):
            bank_id = self.amap.private_bank(block, core)
            index = self.amap.private_index(block)
            bank = self.banks[bank_id]
            existing = bank.peek(index, block, owner=core)
            if existing is not None:
                existing.tokens += tokens
                existing.dirty = existing.dirty or line.dirty
                bank.touch(existing)
                return
            entry = L2Line(block, BlockClass.PRIVATE, core, line.dirty,
                           tokens)
            entry.replica = True
            if bank.allocate(index, entry, t=t, dup_checked=True)[0]:
                return
            self.system.send_to_memory(block, tokens, line.dirty,
                                       self.router_of_core(core), t)
            return
        # No replication: return the tokens to an existing copy.
        for held in self.ledger.l2_holdings(block):
            held.tokens += tokens
            held.dirty = held.dirty or line.dirty
            self.banks[held.bank_id].touch(held)
            return
        self.system.send_to_memory(block, tokens, line.dirty,
                                   self.router_of_core(core), t)

    def on_l2_eviction(self, bank_id: int, set_index: int, entry: L2Line,
                       tokens: int, cascade: bool, t: int = 0) -> None:
        owner = entry.owner
        if 0 <= owner < self.config.num_cores and not entry.replica:
            tags = self._victim_tags[owner]
            if len(tags) == tags.maxlen:
                self._victim_sets[owner].discard(tags[0])
            tags.append(entry.block)
            self._victim_sets[owner].add(entry.block)
        super().on_l2_eviction(bank_id, set_index, entry, tokens, cascade,
                               t)
