"""Replacement policies.

* ``FlatLru`` — plain LRU over the whole set; SP-NUCA's cost-effective
  partitioning mechanism (Section 2.2): the private/shared way split is
  emergent from which class's blocks get recency.
* ``ProtectedLru`` — ESP-NUCA's policy (Section 3.2): helping blocks
  (replicas/victims) are bounded per set by the bank's ``nmax``; at the
  bound the LRU *helping* block is the victim, below it the LRU of the
  whole set. Reference sets refuse helping blocks, explorer sets allow
  one extra.
* ``StaticPartition`` — fixed private/shared way quota (the 12/4 static
  baseline of Figure 4).

A policy's ``choose(bank, set_index, cls)`` returns the way an incoming
block of class ``cls`` replaces in that set of the bank, or ``None`` to
refuse admission (only possible for helping blocks — a demand block is
never refused). Ties go to the lowest way: the first free way, and the
lowest-way line among equal LRU stamps.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from repro.cache.block import BlockClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.bank import CacheBank

_LRU = attrgetter("lru")


class ReplacementPolicy:
    """Strategy interface: pick the way an incoming block replaces."""

    def choose(self, bank: "CacheBank", set_index: int,
               cls: BlockClass) -> Optional[int]:
        raise NotImplementedError

    def name(self) -> str:
        return type(self).__name__


class FlatLru(ReplacementPolicy):
    """The first free way, else the LRU line of the set."""

    def choose(self, bank: "CacheBank", set_index: int,
               cls: BlockClass) -> Optional[int]:
        ways = bank.lines[set_index]
        if bank.fill[set_index] < bank.ways:
            return ways.index(None)
        return min(ways, key=_LRU).way


def _lru_helping_way(ways) -> int:
    """Way of the least-recently-used helping line (-1 if none)."""
    best = None
    for line in ways:
        if line is not None and line.cls.is_helping and (
                best is None or line.lru < best.lru):
            best = line
    return -1 if best is None else best.way


class ProtectedLru(ReplacementPolicy):
    """ESP-NUCA's helping-block-aware replacement.

    The per-set helping budget comes from ``bank.helping_limit(set)``,
    which folds together the bank's current ``nmax`` and the set's role
    (reference sets: 0; explorer sets: nmax + 1; others: nmax). Only the
    scan the decision needs is made: the free-way and helping counts
    are kept by the bank.
    """

    def choose(self, bank: "CacheBank", set_index: int,
               cls: BlockClass) -> Optional[int]:
        limit = bank.helping_limit(set_index)
        n = bank.helping[set_index]
        ways = bank.lines[set_index]
        full = bank.fill[set_index] >= bank.ways
        if cls.is_helping:
            if limit == 0:
                return None
            if n >= limit:
                # At (or over) the budget a helping incoming replaces
                # the LRU *helping* block even while free ways remain:
                # Section 3.2 bounds how many ways helping blocks may
                # occupy, not how full the set is, so a free way must
                # stay available to first-class blocks.
                way = _lru_helping_way(ways)
                return way if way >= 0 else None
            if not full:
                return ways.index(None)
            return min(ways, key=_LRU).way
        # First-class incoming: never refused. A set strictly over its
        # budget (possible after an nmax decrease) sheds the LRU helping
        # block *before* considering free ways, so every first-class
        # install converges it back toward the bound — otherwise a set
        # with free ways kept its excess helping blocks indefinitely.
        if n > limit:
            return _lru_helping_way(ways)
        if not full:
            return ways.index(None)
        # Full set at the budget: helping blocks are evicted first;
        # under the budget, plain LRU over the whole set.
        if n > 0 and n >= limit:
            return _lru_helping_way(ways)
        return min(ways, key=_LRU).way


class StaticPartition(ReplacementPolicy):
    """Fixed way quota per class: ``private_ways`` for PRIVATE blocks,
    the remainder for SHARED (helping blocks are treated as overflow of
    their underlying class and share the shared quota)."""

    def __init__(self, private_ways: int) -> None:
        self.private_ways = private_ways

    def name(self) -> str:
        return f"StaticPartition({self.private_ways})"

    @staticmethod
    def _is_private_side(cls: BlockClass) -> bool:
        return cls is BlockClass.PRIVATE or cls is BlockClass.REPLICA

    def choose(self, bank: "CacheBank", set_index: int,
               cls: BlockClass) -> Optional[int]:
        private_side = self._is_private_side(cls)
        quota = self.private_ways if private_side else bank.ways - self.private_ways
        side = self._is_private_side
        same_side = bank.count(
            set_index, lambda b, ps=private_side: side(b.cls) == ps)
        if same_side >= quota:
            victim = bank.lru_line(
                set_index, lambda b, ps=private_side: side(b.cls) == ps)
            assert victim is not None
            return victim.way
        free = bank.free_way(set_index)
        if free is not None:
            return free
        # Same side under quota but the set is full: the other side is
        # over quota, evict its LRU.
        victim = bank.lru_line(
            set_index, lambda b, ps=private_side: side(b.cls) != ps)
        if victim is None:
            victim = bank.lru_line(set_index)
        assert victim is not None
        return victim.way
