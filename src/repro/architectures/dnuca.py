"""Dynamically-mapped NUCA (D-NUCA, Kim et al. [13]) — Section 6.1.

The implementation follows the variant the paper compares against
(Beckmann & Wood's CMP D-NUCA [4] "which assumes an idealized
perfect-search and uses replication"):

* the 32 banks form ``banks_per_router`` **banksets**; a block's
  address picks its bankset, and the block may reside in that bankset's
  bank of *any* cluster;
* **perfect search**: a request goes straight to the bank currently
  holding the block (no multicast probes are charged — idealized, as in
  the paper);
* **gradual migration**: a hit by a core in another cluster pulls a
  sole copy one cluster-step toward the requester (swapping with the
  victim way of the target bank);
* **replication**: a remote hit on a multi-reader copy (spare tokens)
  leaves a one-token replica in the requester's own cluster instead of
  migrating — this is where D-NUCA buys its on-chip locality and pays
  with the higher L2 miss rate the paper reports.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.architectures.base import NucaArchitecture
from repro.cache.block import BlockClass, L2Line
from repro.cache.l1 import L1Line
from repro.sim.request import Supplier


class DNuca(NucaArchitecture):
    name = "d-nuca"

    def bind(self, system) -> None:
        super().bind(system)
        self._bankset_mask = self.config.noc.banks_per_router - 1
        self._bankset_bits = self._bankset_mask.bit_length()
        self._index_mask = self.config.l2.sets_per_bank - 1
        self.migrations = 0
        self.replications = 0

    # -- bankset geometry ---------------------------------------------------------

    def bankset(self, block: int) -> int:
        return block & self._bankset_mask

    def dnuca_index(self, block: int) -> int:
        return (block >> self._bankset_bits) & self._index_mask

    def bank_of(self, block: int, cluster: int) -> int:
        return cluster * self.config.noc.banks_per_router + self.bankset(block)

    # -- miss path -------------------------------------------------------------------

    def handle_miss(self, core: int, block: int, is_write: bool, t: int
                    ) -> Tuple[int, Supplier]:
        index = self.dnuca_index(block)
        core_router = self.router_of_core(core)
        holder = self._nearest_line(block, core_router)
        if holder is not None:
            # Perfect search: go straight to the holder bank.
            bank_id = holder.bank_id
            bank_router = self.router_of_bank(bank_id)
            t1 = self.req(core_router, bank_router, t)
            # Count the demand lookup in the holder bank's statistics.
            entry = self.banks[bank_id].lookup(index, block)
            assert entry is holder
            t2 = self.bank_service(bank_id, t1, hit=True)
            local = bank_router == core_router
            if is_write:
                tokens, _, _ = self.take_from_l2_line(entry, want_all=True)
                t_coll, extra, _ = self.collect_for_write(core, block,
                                                          bank_router, t2)
                t_done = max(self.data(bank_router, core_router, t2), t_coll)
                self.system.l1_fill(core, block, tokens + extra, True, t_done)
                return t_done, (Supplier.L2_LOCAL if local else Supplier.L2_SHARED)
            t_done = self.data(bank_router, core_router, t2)
            if local:
                # Local hits swallow sole copies (cheap later upgrades).
                tokens, dirty, _ = self.take_from_l2_line(entry,
                                                          want_all=False)
                self.system.l1_fill(core, block, tokens, dirty, t_done)
                return t_done, Supplier.L2_LOCAL
            # Remote hit: borrow a token and pull the copy one
            # cluster-step toward the requester (gradual migration);
            # replication happens on the requester's later writeback.
            tokens, dirty, removed = self.take_from_l2_line(
                entry, want_all=False, exclusive_if_sole=False)
            self.system.l1_fill(core, block, tokens, dirty, t_done)
            if not removed:
                self._migrate_toward(block, entry, core_router, t_done)
            return t_done, Supplier.L2_SHARED
        # Not in L2: remote L1s, then memory. Miss detection is charged
        # at the requester's own cluster bank of the bankset.
        own_bank = self.bank_of(block, core)
        self.banks[own_bank].lookup(index, block)  # records the miss
        t2 = self.bank_service(own_bank, t, hit=False)
        state = self.ledger.state(block)
        holders = [h for h in state.l1 if h != core]
        if holders:
            if is_write:
                t_done, tokens, _ = self.collect_for_write(core, block,
                                                           core_router, t2)
                self.system.l1_fill(core, block, tokens, True, t_done)
                return t_done, Supplier.L1_REMOTE
            holder = min(holders, key=lambda h: self.topology.hops(
                core_router, self.router_of_core(h)))
            tokens, dirty = self.take_read_from_l1(block, holder)
            t_done = self.supply_from_l1(core, holder, core_router, t2)
            self.system.l1_fill(core, block, tokens, dirty, t_done)
            return t_done, Supplier.L1_REMOTE
        t_done = self.fetch_offchip(core_router, t2, core_router)
        tokens = self.ledger.take_from_memory(block)
        assert tokens > 0
        self.system.l1_fill(core, block, tokens, is_write, t_done)
        return t_done, Supplier.OFFCHIP

    # -- movement -----------------------------------------------------------------------

    def _nearest_line(self, block: int, router: int) -> Optional[L2Line]:
        lines = self.ledger.l2_holdings(block)
        if not lines:
            return None
        if len(lines) == 1:  # no replica: nothing to rank
            return lines[0]
        return min(lines, key=lambda line: self.topology.hops(
            router, self.router_of_bank(line.bank_id)))

    def _migrate_toward(self, block: int, entry: L2Line,
                        requester_router: int, t: int = 0) -> None:
        """Move the line one cluster-step toward the requester,
        swapping with the LRU line of the target set."""
        src_router = self.router_of_bank(entry.bank_id)
        route = self.topology.dor_route(src_router, requester_router)
        if len(route) < 2:
            return
        target_cluster = route[1]
        src, src_index = self.banks[entry.bank_id], entry.set_index
        dst = self.banks[self.bank_of(block, target_cluster)]
        dst_index = self.dnuca_index(block)
        # If the destination already holds a copy, merge instead of
        # moving (the bankset may contain several replicas).
        existing = dst.peek(dst_index, block)
        tokens = self.ledger.take_from_l2(block, entry)
        src.remove(src_index, entry)
        if existing is not None:
            existing.tokens += tokens
            existing.dirty = existing.dirty or entry.dirty
            dst.touch(existing)
            self.migrations += 1
            return
        entry.tokens = tokens
        victim = dst.lru_line(dst_index)
        if victim is not None:
            # Swap: the displaced line takes the vacated way — unless
            # the source set already has a copy of it, which absorbs
            # its tokens instead (no duplicate entries per set).
            vtokens = self.ledger.take_from_l2(victim.block, victim)
            dst.remove(dst_index, victim)
            src_copy = src.peek(src_index, victim.block)
            if src_copy is not None:
                src_copy.tokens += vtokens
                src_copy.dirty = src_copy.dirty or victim.dirty
            else:
                victim.tokens = vtokens
                admitted, evicted = src.allocate(src_index, victim, t=t)
                assert admitted and evicted is None
        # The destination set has a free way now (unless it was empty
        # and stays so), so this displaces nothing in practice; a
        # displaced line would go through on_l2_eviction.
        admitted, _ = dst.allocate(dst_index, entry, t=t)
        assert admitted
        self.migrations += 1

    # -- eviction routing ------------------------------------------------------------------

    def route_l1_eviction(self, core: int, line: L1Line, t: int = 0) -> None:
        """Writebacks land in the evicting core's own cluster bank: a
        same-cluster copy is merged, otherwise a new (replicated) entry
        is created there — unrestricted L2 replication within the
        bankset, the source of D-NUCA's extra capacity pressure."""
        block = line.block
        tokens = self.ledger.take_from_l1(block, core)
        own_bank = self.bank_of(block, core)
        holdings = self.ledger.l2_holdings(block)
        for held in holdings:
            if held.bank_id == own_bank:
                held.tokens += tokens
                held.dirty = held.dirty or line.dirty
                self.banks[own_bank].touch(held)
                return
        if holdings:
            self.replications += 1  # a second bankset copy is born
        self.merge_or_allocate(own_bank, self.dnuca_index(block),
                               block, BlockClass.SHARED, -1,
                               tokens, line.dirty, t=t)
