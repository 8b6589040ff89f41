"""Shadow-tag based dynamic private/shared partitioning (Figure 4 baseline).

The paper compares SP-NUCA's flat-LRU partitioning against a "much more
accurate but also more costly" scheme using shadow tags [19, 8]: each
set keeps 8 shadow tags recording recently evicted blocks of each class.
A miss that hits a shadow tag of class X is evidence that X would have
benefited from one more way, so the per-set private-way target moves
toward X; replacement then evicts from the class exceeding its target.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.cache.block import BlockClass, L2Line
from repro.cache.replacement import ReplacementPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.bank import CacheBank


class _SetShadowState:
    __slots__ = ("private_tags", "shared_tags", "target_private")

    def __init__(self, depth: int, ways: int) -> None:
        self.private_tags: Deque[int] = deque(maxlen=depth)
        self.shared_tags: Deque[int] = deque(maxlen=depth)
        self.target_private = ways // 2


class ShadowTagPartition(ReplacementPolicy):
    """Per-set shadow-tag driven partition between PRIVATE and SHARED.

    ``shadow_depth`` is the number of shadow tags per class per set
    (8 total per set with the default of 4, matching Section 5.1).
    """

    def __init__(self, ways: int, shadow_depth: int = 4) -> None:
        self.ways = ways
        self.shadow_depth = shadow_depth
        self._states: dict[tuple[int, int], _SetShadowState] = {}

    def name(self) -> str:
        return "ShadowTags"

    def _state(self, bank_id: int, set_index: int) -> _SetShadowState:
        key = (bank_id, set_index)
        state = self._states.get(key)
        if state is None:
            state = _SetShadowState(self.shadow_depth, self.ways)
            self._states[key] = state
        return state

    # -- learning hooks -------------------------------------------------------

    def observe_miss(self, bank_id: int, set_index: int, block: int,
                     cls: BlockClass) -> None:
        """Called by the SP-NUCA policy on every L2 demand miss."""
        state = self._state(bank_id, set_index)
        if cls == BlockClass.PRIVATE:
            if block in state.private_tags:
                state.private_tags.remove(block)
                if state.target_private < self.ways - 1:
                    state.target_private += 1
        else:
            if block in state.shared_tags:
                state.shared_tags.remove(block)
                if state.target_private > 1:
                    state.target_private -= 1

    def _record_eviction(self, state: _SetShadowState, victim: L2Line) -> None:
        if victim.cls == BlockClass.PRIVATE:
            state.private_tags.append(victim.block)
        elif victim.cls == BlockClass.SHARED:
            state.shared_tags.append(victim.block)

    # -- replacement ---------------------------------------------------------

    def choose(self, bank: "CacheBank", set_index: int,
               cls: BlockClass) -> Optional[int]:
        free = bank.free_way(set_index)
        state = self._state(bank.bank_id, set_index)
        if free is not None:
            return free
        privates = bank.count(set_index,
                              lambda b: b.cls == BlockClass.PRIVATE)
        over_private = privates > state.target_private
        # Evict from the class exceeding its target; fall back to global
        # LRU when that class has no resident blocks.
        victim = bank.lru_line(
            set_index,
            lambda b, op=over_private: (b.cls == BlockClass.PRIVATE) == op)
        if victim is None:
            victim = bank.lru_line(set_index)
        assert victim is not None
        self._record_eviction(state, victim)
        return victim.way
