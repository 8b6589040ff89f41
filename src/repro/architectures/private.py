"""Tiled private L2 — the paper's "Private" counterpart (Section 6.1).

Each core treats its four nearest banks as a fully private L2 under the
private interpretation of Figure 1b, with unrestricted replication:
every L1 writeback allocates in the local partition. Low on-chip
latency and full isolation, but shared data is replicated (capacity
loss) and an idle core's partition helps nobody.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.architectures.base import NucaArchitecture
from repro.cache.block import BlockClass
from repro.cache.l1 import L1Line
from repro.sim.request import Supplier


class TiledPrivate(NucaArchitecture):
    name = "private"

    def handle_miss(self, core: int, block: int, is_write: bool, t: int
                    ) -> Tuple[int, Supplier]:
        # AddressMap.private_bank / private_index, inline (as in
        # SpNuca.handle_miss: once per miss).
        amap = self.amap
        bank_id = (core * amap._banks_per_core
                   + (block & amap._private_bank_mask))
        index = (block >> amap.private_bank_bits) & amap._index_mask
        core_router = self.router_of_core(core)  # == the bank's router
        entry = self.banks[bank_id].lookup(index, block, owner=core)
        if entry is not None:
            self._on_local_hit(core, entry)
            t2 = self.bank_service(bank_id, t, hit=True)
            tokens, dirty, _ = self.take_from_l2_line(entry, want_all=True)
            if is_write and tokens < self.ledger.total_tokens:
                t_coll, extra, _ = self.collect_for_write(core, block,
                                                          core_router, t2)
                tokens += extra
                t2 = max(t2, t_coll)
            self.system.l1_fill(core, block, tokens, dirty or is_write, t2)
            return t2, Supplier.L2_LOCAL
        t2 = self.bank_service(bank_id, t, hit=False)
        if is_write and self.ledger.on_chip(block):
            source = self._nearest_source(core, block)
            t_done, tokens, _ = self.collect_for_write(core, block,
                                                       core_router, t2)
            self.system.l1_fill(core, block, tokens, True, t_done)
            supplier = (Supplier.L1_REMOTE if source and source[0] == "l1"
                        else Supplier.L2_REMOTE)
            return t_done, supplier
        source = self._nearest_source(core, block)
        if source is not None:
            kind, obj = source
            if kind == "l1":
                tokens, dirty = self.take_read_from_l1(block, obj)
                t_done = self.supply_from_l1(core, obj, core_router, t2)
                self.system.l1_fill(core, block, tokens, dirty, t_done)
                return t_done, Supplier.L1_REMOTE
            line = obj
            remote_router = self.router_of_bank(line.bank_id)
            t3 = self.req(core_router, remote_router, t2)
            t4 = self.bank_service(line.bank_id, t3, hit=True)
            tokens, dirty, _ = self.take_from_l2_line(
                line, want_all=False, exclusive_if_sole=False)
            t_done = self.data(remote_router, core_router, t4)
            self.system.l1_fill(core, block, tokens, dirty, t_done)
            return t_done, Supplier.L2_REMOTE
        t_done = self.fetch_offchip(core_router, t2, core_router)
        tokens = self.ledger.take_from_memory(block)
        assert tokens > 0
        self.system.l1_fill(core, block, tokens, is_write, t_done)
        return t_done, Supplier.OFFCHIP

    def _on_local_hit(self, core: int, entry) -> None:
        """Hook for subclasses (ASR counts replica hits here)."""

    def _nearest_source(self, core: int, block: int
                        ) -> Optional[Tuple[str, object]]:
        state = self.ledger.state(block)
        core_router = self.router_of_core(core)
        best: Optional[Tuple[int, str, object]] = None
        for holder in state.l1:
            if holder == core:
                continue
            hops = self.topology.hops(core_router, self.router_of_core(holder))
            if best is None or hops < best[0]:
                best = (hops, "l1", holder)
        for line in state.l2:
            hops = self.topology.hops(core_router,
                                      self.router_of_bank(line.bank_id))
            if best is None or hops < best[0]:
                best = (hops, "l2", line)
        if best is None:
            return None
        return best[1], best[2]

    def route_l1_eviction(self, core: int, line: L1Line, t: int = 0) -> None:
        block = line.block
        tokens = self.ledger.take_from_l1(block, core)
        self.merge_or_allocate(self.amap.private_bank(block, core),
                               self.amap.private_index(block),
                               block, BlockClass.PRIVATE, core,
                               tokens, line.dirty, t=t)
