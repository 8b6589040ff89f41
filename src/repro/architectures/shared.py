"""Static shared NUCA — the paper's "Shared" counterpart (Section 6.1).

Every block has a single home bank determined by its address under the
shared interpretation of Figure 1b; requests go straight there (Figure
2a). Low off-chip miss rate (no replication), but no locality: the home
bank is on average several hops away.
"""

from __future__ import annotations

from typing import Tuple

from repro.architectures.base import NucaArchitecture
from repro.cache.block import BlockClass
from repro.cache.l1 import L1Line
from repro.sim.request import Supplier


class SharedNuca(NucaArchitecture):
    name = "shared"

    def handle_miss(self, core: int, block: int, is_write: bool, t: int
                    ) -> Tuple[int, Supplier]:
        bank_id = self.amap.shared_bank(block)
        index = self.amap.shared_index(block)
        home_router = self.router_of_bank(bank_id)
        core_router = self.router_of_core(core)
        t1 = self.req(core_router, home_router, t)
        entry = self.banks[bank_id].lookup(index, block)
        if entry is not None:
            t2 = self.bank_service(bank_id, t1, hit=True)
            tokens, dirty, _ = self.take_from_l2_line(entry,
                                                      want_all=is_write)
            t_done = self.data(home_router, core_router, t2)
            if is_write:
                t_coll, extra, _ = self.collect_for_write(core, block,
                                                          home_router, t2)
                tokens += extra
                dirty = True
                t_done = max(t_done, t_coll)
            self.system.l1_fill(core, block, tokens, dirty, t_done)
            supplier = (Supplier.L2_LOCAL if home_router == core_router
                        else Supplier.L2_SHARED)
            return t_done, supplier
        t2 = self.bank_service(bank_id, t1, hit=False)
        state = self.ledger.state(block)
        holders = [h for h in state.l1 if h != core]
        if holders:
            if is_write:
                t_done, tokens, _ = self.collect_for_write(core, block,
                                                           home_router, t2)
                self.system.l1_fill(core, block, tokens, True, t_done)
                return t_done, Supplier.L1_REMOTE
            holder = min(holders, key=lambda h: self.topology.hops(
                home_router, self.router_of_core(h)))
            tokens, dirty = self.take_read_from_l1(block, holder)
            t_done = self.supply_from_l1(core, holder, home_router, t2)
            self.system.l1_fill(core, block, tokens, dirty, t_done)
            return t_done, Supplier.L1_REMOTE
        holdings = self.ledger.l2_holdings(block)
        if holdings:
            # Possible only in subclasses that keep extra L2 copies
            # (e.g. Victim Replication's local replicas): the home bank
            # forwards to the copy's bank.
            line = min(holdings, key=lambda h: self.topology.hops(
                home_router, self.router_of_bank(h.bank_id)))
            remote_router = self.router_of_bank(line.bank_id)
            t3 = self.req(home_router, remote_router, t2)
            t4 = self.bank_service(line.bank_id, t3, hit=True)
            tokens, dirty, _ = self.take_from_l2_line(
                line, want_all=is_write, exclusive_if_sole=False)
            if is_write:
                t_coll, extra, _ = self.collect_for_write(core, block,
                                                          home_router, t4)
                tokens += extra
                dirty = True
                t4 = max(t4, t_coll)
            t_done = self.data(remote_router, core_router, t4)
            self.system.l1_fill(core, block, tokens, dirty, t_done)
            return t_done, Supplier.L2_REMOTE
        # Off chip: the home bank dispatches to its nearest controller.
        t_done = self.fetch_offchip(home_router, t2, core_router)
        tokens = self.ledger.take_from_memory(block)
        assert tokens > 0, "no on-chip copy implies memory holds tokens"
        self.system.l1_fill(core, block, tokens, is_write, t_done)
        return t_done, Supplier.OFFCHIP

    def route_l1_eviction(self, core: int, line: L1Line, t: int = 0) -> None:
        block = line.block
        tokens = self.ledger.take_from_l1(block, core)
        self.merge_or_allocate(self.amap.shared_bank(block),
                               self.amap.shared_index(block),
                               block, BlockClass.SHARED, -1,
                               tokens, line.dirty, t=t)
