"""Property test: batch replacement (sim/vector/replacement.py) must
reproduce the reference policies (cache/replacement.py) decision for
decision — including protected-LRU refusal, the over-budget
shed-before-free convergence rule, and every tie-break.

Strategy: drive the same seeded random op sequence (install / touch /
evict / reclassify / budget change) through a one-set
:class:`~repro.cache.bank.CacheBank` guarded by the reference policy,
and through a :class:`~repro.sim.vector.replacement.SetMatrix`;
at every install the chosen way must agree, on both the numpy batch
path and the scalar fallback.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.bank import CacheBank
from repro.cache.block import BlockClass, L2Line
from repro.cache.replacement import FlatLru, ProtectedLru
from repro.sim.vector.replacement import (REFUSED, SetMatrix, choose_flat,
                                          choose_protected)

WAYS = 4
HELPING_CLASSES = (BlockClass.REPLICA, BlockClass.VICTIM)
FIRST_CLASSES = (BlockClass.PRIVATE, BlockClass.SHARED)


class _Harness:
    """One set mirrored in both representations, plus a stamp counter.
    The bank's ``nmax`` is the set's helping budget (its one set has
    the normal role)."""

    def __init__(self, policy, limit: int) -> None:
        self.bank = CacheBank(0, num_sets=1, ways=WAYS, policy=policy)
        self.bank.nmax = limit
        self.matrix = SetMatrix(1, WAYS)
        self.stamp = 0
        self.next_block = 0

    def tick(self) -> int:
        self.stamp += 1
        return self.stamp

    def fresh_block(self, cls: BlockClass) -> L2Line:
        self.next_block += 1
        return L2Line(block=self.next_block, cls=cls,
                          owner=-1 if cls is BlockClass.SHARED else 0)

    def install(self, way: int, entry: L2Line) -> None:
        entry.lru = self.tick()
        self.bank.install(0, way, entry)
        self.matrix.install(0, way, entry.is_helping, entry.lru)

    def valid_ways(self):
        return [w for w, e in enumerate(self.bank.lines[0]) if e is not None]


def _agreeing_choice(harness: _Harness, policy, entry: L2Line):
    """The reference policy's choice, asserted equal on both batch paths."""
    bank = harness.bank
    limit = bank.helping_limit(0)
    ref = policy.choose(bank, 0, entry.cls)
    if isinstance(policy, FlatLru):
        batch = choose_flat(harness.matrix, [0])[0]
        scalar = choose_flat(harness.matrix, [0], force_scalar=True)[0]
    else:
        batch = choose_protected(harness.matrix, [0], [entry.is_helping],
                                 [limit])[0]
        scalar = choose_protected(harness.matrix, [0], [entry.is_helping],
                                  [limit], force_scalar=True)[0]
    expected = REFUSED if ref is None else ref
    assert batch == expected, (
        f"numpy path chose way {batch}, reference chose {ref} "
        f"(limit {limit}, helping incoming {entry.is_helping}, "
        f"n {bank.helping[0]})")
    assert scalar == expected, (
        f"scalar path chose way {scalar}, reference chose {ref}")
    return ref


def _random_walk(seed: int, policy, limits) -> int:
    rng = random.Random(seed)
    harness = _Harness(policy, rng.choice(limits))
    bank = harness.bank
    installs = 0
    for _ in range(400):
        op = rng.random()
        if op < 0.55:  # install (the op under test)
            helping = (isinstance(policy, ProtectedLru)
                       and rng.random() < 0.5)
            cls = rng.choice(HELPING_CLASSES if helping else FIRST_CLASSES)
            entry = harness.fresh_block(cls)
            way = _agreeing_choice(harness, policy, entry)
            if way is None:
                assert entry.is_helping and bank.helping_limit(0) == 0
                continue
            harness.install(way, entry)
            installs += 1
        elif op < 0.75:  # touch a resident block
            ways = harness.valid_ways()
            if ways:
                way = rng.choice(ways)
                stamp = harness.tick()
                bank.lines[0][way].lru = stamp
                harness.matrix.touch(0, way, stamp)
        elif op < 0.85:  # evict a resident block
            ways = harness.valid_ways()
            if ways:
                way = rng.choice(ways)
                bank.remove(0, bank.lines[0][way])
                harness.matrix.evict(0, way)
        elif op < 0.92 and isinstance(policy, ProtectedLru):
            # Reclassify: flips helping-ness, so a later budget change
            # can leave the set strictly over budget.
            ways = harness.valid_ways()
            if ways:
                way = rng.choice(ways)
                entry = bank.lines[0][way]
                new_cls = rng.choice(
                    FIRST_CLASSES if entry.is_helping else HELPING_CLASSES)
                bank.reclassify(0, entry, new_cls)
                harness.matrix.reclassify(0, way, entry.is_helping)
        else:  # budget change (nmax duel moves / set-role changes)
            bank.nmax = rng.choice(limits)
        assert bank.helping[0] == harness.matrix.helping_count(0)
    return installs


@pytest.mark.parametrize("seed", range(8))
def test_protected_lru_matches_reference(seed: int) -> None:
    installs = _random_walk(seed, ProtectedLru(), limits=(0, 1, 2, WAYS, 64))
    assert installs > 50  # the walk actually exercised the policy


@pytest.mark.parametrize("seed", range(4))
def test_flat_lru_matches_reference(seed: int) -> None:
    installs = _random_walk(seed, FlatLru(), limits=(WAYS,))
    assert installs > 50


def test_zero_budget_refuses_helping() -> None:
    matrix = SetMatrix(1, WAYS)
    for force_scalar in (False, True):
        assert choose_protected(matrix, [0], [True], [0],
                                force_scalar=force_scalar) == [REFUSED]


def test_over_budget_first_class_sheds_helping_before_free_way() -> None:
    """A set strictly over its budget converges back via first-class
    installs even while free ways remain (Section 3.2 convergence)."""
    matrix = SetMatrix(1, WAYS)
    matrix.install(0, 1, True, 10)   # LRU helping block
    matrix.install(0, 2, True, 20)
    # Ways 0 and 3 are free; with limit 1 the set is over budget (n=2),
    # so a first-class install must evict the LRU helping block (way 1),
    # not take a free way.
    for force_scalar in (False, True):
        assert choose_protected(matrix, [0], [False], [1],
                                force_scalar=force_scalar) == [1]
    # At the budget (n == limit) the shed rule no longer applies below
    # capacity: the first free way wins.
    for force_scalar in (False, True):
        assert choose_protected(matrix, [0], [False], [2],
                                force_scalar=force_scalar) == [0]


def test_at_budget_helping_replaces_lru_helping_despite_free_way() -> None:
    matrix = SetMatrix(1, WAYS)
    matrix.install(0, 3, True, 5)
    for force_scalar in (False, True):
        assert choose_protected(matrix, [0], [True], [1],
                                force_scalar=force_scalar) == [3]


def test_batch_mixes_sets_and_budgets() -> None:
    """One batched call over heterogeneous sets equals per-set calls."""
    matrix = SetMatrix(3, WAYS)
    matrix.install(0, 0, False, 1)
    matrix.install(1, 0, True, 1)
    matrix.install(1, 1, True, 2)
    for way in range(WAYS):
        matrix.install(2, way, way == 2, 100 - way)
    sets = [0, 1, 2, 1]
    incoming = [True, False, True, True]
    limits = [0, 1, 2, 64]
    batched = choose_protected(matrix, sets, incoming, limits)
    singly = [choose_protected(matrix, [s], [h], [lim])[0]
              for s, h, lim in zip(sets, incoming, limits)]
    scalar = choose_protected(matrix, sets, incoming, limits,
                              force_scalar=True)
    assert batched == singly == scalar
