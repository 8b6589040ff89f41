"""Cooperative Caching (CC, Chang & Sohi [5]) — Section 6.1.

Private L2s cooperating through three mechanisms:

* **cache-to-cache sharing** — an L2 miss is served from any on-chip
  copy (the central-directory CCE role is played by the token ledger,
  exactly the knowledge a CCE would have);
* **replication-aware replacement** — a tile prefers evicting blocks
  that have other on-chip copies ("replicated") over sole copies
  ("singlets"), keeping unique on-chip content resident longer;
* **spilling** — an evicted singlet is, with the statically configured
  cooperation probability (the paper evaluates 0%, 30%, 70% and 100%),
  forwarded once to a random peer tile instead of going off chip
  (1-chance forwarding: a spilled block is not re-spilled).

``cooperation=0.0`` degenerates to a private cache with cache-to-cache
sharing — the paper's CC00.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.architectures.private import TiledPrivate
from repro.cache.bank import CacheBank
from repro.cache.block import BlockClass, L2Line
from repro.cache.replacement import ReplacementPolicy
from repro.common.config import SystemConfig
from repro.sim.request import Supplier


class ReplicationAwareLru(ReplacementPolicy):
    """LRU that victimizes replicated blocks before singlets.

    The replication status is the *allocation-time hint* recorded in
    ``L2Line.replicated_hint`` — the imprecise, lazily updated
    knowledge a real CCE piggybacks on coherence traffic — not the
    ledger's live truth (an oracle version of this policy turns CC
    into a near-perfect global cache, which the real design is not).
    """

    def name(self) -> str:
        return "ReplicationAwareLru"

    @staticmethod
    def _is_replicated(entry: L2Line) -> bool:
        return bool(entry.replicated_hint)

    def choose(self, bank: CacheBank, set_index: int,
               cls: BlockClass) -> Optional[int]:
        free = bank.free_way(set_index)
        if free is not None:
            return free
        victim = bank.lru_line(set_index, self._is_replicated)
        if victim is None:
            victim = bank.lru_line(set_index)
        assert victim is not None
        return victim.way


class CooperativeCaching(TiledPrivate):
    def __init__(self, config: SystemConfig, cooperation: float = 0.3) -> None:
        super().__init__(config)
        if not 0.0 <= cooperation <= 1.0:
            raise ValueError("cooperation probability must be in [0, 1]")
        self.cooperation = cooperation
        self.name = f"cc{int(round(cooperation * 100)):02d}"
        coop = self.stats.scope("cooperation")
        self._spills = coop.counter("spills")
        self._spill_hits = coop.counter("spill_hits")

    @property
    def spills(self) -> int:
        return self._spills.value

    @property
    def spill_hits(self) -> int:
        return self._spill_hits.value

    def build_banks(self) -> List[CacheBank]:
        cfg = self.config.l2
        policy = ReplicationAwareLru()
        return [CacheBank(b, cfg.sets_per_bank, cfg.assoc, policy)
                for b in range(cfg.num_banks)]

    def route_l1_eviction(self, core: int, line, t: int = 0) -> None:
        """Like the private base, but stamping the CCE's allocation-time
        replication hint on fresh entries."""
        block = line.block
        state = self.ledger.state(block)
        hint = state.held_elsewhere(core)
        super().route_l1_eviction(core, line, t)
        bank_id = self.amap.private_bank(block, core)
        entry = self.banks[bank_id].peek(self.amap.private_index(block),
                                         block, owner=core)
        if entry is not None and entry.replicated_hint is None:
            entry.replicated_hint = hint

    def bind(self, system) -> None:
        super().bind(system)
        self._rng = random.Random(0xCC00 + int(self.cooperation * 100))

    def handle_miss(self, core: int, block: int, is_write: bool, t: int
                    ) -> Tuple[int, "object"]:
        source = self._nearest_source(core, block)
        spilled_source = (source is not None and source[0] == "l2"
                          and source[1].spilled)
        t_done, supplier = super().handle_miss(core, block, is_write, t)
        if spilled_source:
            self._spill_hits.value += 1
        if supplier in (Supplier.L1_REMOTE, Supplier.L2_REMOTE):
            # Cache-to-cache transfers are brokered by the central
            # coherence engine (CCE): charge the directory indirection
            # the paper's CC pays and our perfect-knowledge ledger
            # would otherwise hide.
            t_done += 2 * self.config.noc.hop_latency
        return t_done, supplier

    # -- spilling --------------------------------------------------------------------

    def on_l2_eviction(self, bank_id: int, set_index: int, entry: L2Line,
                       tokens: int, cascade: bool, t: int = 0) -> None:
        block = entry.block
        state = self.ledger.state(block)
        singlet = not state.l1 and not state.l2
        if (singlet and not cascade and not entry.spilled
                and self.cooperation > 0.0
                and self._rng.random() < self.cooperation):
            host = self._pick_host(bank_id)
            if host is not None:
                spilled = L2Line(block, BlockClass.VICTIM, entry.owner,
                                 entry.dirty, tokens)
                spilled.spilled = True
                host_bank = self.amap.private_bank(block, host)
                host_index = self.amap.private_index(block)
                if self.banks[host_bank].allocate(host_index, spilled,
                                                  cascade=True, t=t)[0]:
                    self._spills.value += 1
                    return
        self.system.send_to_memory(block, tokens, entry.dirty,
                                   self.router_of_bank(bank_id), t)

    def _pick_host(self, bank_id: int) -> Optional[int]:
        evictor = self.amap.owner_of_bank(bank_id)
        others = [c for c in range(self.config.num_cores) if c != evictor]
        return self._rng.choice(others) if others else None
