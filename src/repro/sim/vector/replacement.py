"""Batch replacement decisions over struct-of-arrays set state.

:class:`SetMatrix` mirrors a bank's sets as dense ``(nsets, ways)``
columns — ``valid`` / ``helping`` flags and an LRU stamp matrix — the
layout described in docs/engine.md ("State layout"). On top of it,
:func:`choose_flat` and :func:`choose_protected` reproduce the decision
tables of :class:`~repro.cache.replacement.FlatLru` and
:class:`~repro.cache.replacement.ProtectedLru` for whole batches of
sets at once, including tie-breaks:

* a free way is the lowest-indexed invalid way;
* an LRU victim is the lowest-indexed block with the minimal stamp
  (the reference policies take the first minimum in way order —
  ``argmin`` has the same convention);
* helping refusal (``limit == 0``) and the over-budget shed-before-free
  convergence rule (a first-class install into a set strictly over its
  helping budget evicts the LRU helping block even while free ways
  remain) follow Section 3.2 exactly.

``tests/test_vector_replacement.py`` pins the equivalence against the
reference policies property-style: random op sequences are driven
through a one-set :class:`~repro.cache.bank.CacheBank` and through a
:class:`SetMatrix`, and every ``choose`` must agree, on both the numpy
and the scalar fallback path.

numpy is a soft dependency (same gate as the rest of the package): the
batch entry points accept ``force_scalar=True`` and degrade to per-row
Python loops with identical results.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

try:  # soft dependency, as in soa.py
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

HAS_NUMPY = _np is not None

#: Stamp larger than any real LRU counter, used to mask invalid ways
#: out of ``argmin`` scans. Banks stamp from a monotone int counter, so
#: anything at this magnitude would need ~10^18 touches.
_INF = (1 << 62)

#: ``choose`` result meaning "admission refused" (helping incoming into
#: a zero-budget set) — the batch analogue of the reference policy's
#: ``None``.
REFUSED = -1


class SetMatrix:
    """SoA mirror of ``nsets`` cache sets of ``ways`` ways each.

    Three parallel matrices, row per set, column per way:

    * ``valid[s][w]`` — way holds a block;
    * ``helping[s][w]`` — that block is second-class (replica/victim);
      meaningful only where ``valid``;
    * ``lru[s][w]`` — the block's LRU stamp (bank-global monotone
      counter, higher = more recent).

    Mutators mirror the reference set's bookkeeping: ``install`` places
    a block (overwriting whatever held the way), ``touch`` re-stamps,
    ``evict`` clears. ``helping_count`` is derived, never stored — one
    less counter to keep coherent.
    """

    __slots__ = ("nsets", "ways", "valid", "helping", "lru")

    def __init__(self, nsets: int, ways: int) -> None:
        self.nsets = nsets
        self.ways = ways
        self.valid: List[List[bool]] = [[False] * ways for _ in range(nsets)]
        self.helping: List[List[bool]] = [[False] * ways
                                          for _ in range(nsets)]
        self.lru: List[List[int]] = [[0] * ways for _ in range(nsets)]

    def install(self, set_idx: int, way: int, helping: bool,
                stamp: int) -> None:
        self.valid[set_idx][way] = True
        self.helping[set_idx][way] = helping
        self.lru[set_idx][way] = stamp

    def touch(self, set_idx: int, way: int, stamp: int) -> None:
        self.lru[set_idx][way] = stamp

    def reclassify(self, set_idx: int, way: int, helping: bool) -> None:
        self.helping[set_idx][way] = helping

    def evict(self, set_idx: int, way: int) -> None:
        self.valid[set_idx][way] = False
        self.helping[set_idx][way] = False
        self.lru[set_idx][way] = 0

    def helping_count(self, set_idx: int) -> int:
        valid = self.valid[set_idx]
        return sum(1 for w, h in enumerate(self.helping[set_idx])
                   if h and valid[w])


def _free_way(valid: Sequence[bool]) -> Optional[int]:
    for way, v in enumerate(valid):
        if not v:
            return way
    return None


def _lru_way(valid: Sequence[bool], lru: Sequence[int],
             mask: Optional[Sequence[bool]] = None) -> Optional[int]:
    best = None
    best_stamp = _INF
    for way, v in enumerate(valid):
        if not v or (mask is not None and not mask[way]):
            continue
        if lru[way] < best_stamp:
            best, best_stamp = way, lru[way]
    return best


def _choose_flat_row(valid: Sequence[bool], lru: Sequence[int]) -> int:
    free = _free_way(valid)
    if free is not None:
        return free
    way = _lru_way(valid, lru)
    assert way is not None
    return way


def _choose_protected_row(valid: Sequence[bool], helping: Sequence[bool],
                          lru: Sequence[int], incoming_helping: bool,
                          limit: int) -> int:
    # Mirrors ProtectedLru.choose branch for branch (see that docstring
    # for the policy rationale; this file only owes it equivalence).
    n = sum(1 for w, h in enumerate(helping) if h and valid[w])
    if incoming_helping:
        if limit == 0:
            return REFUSED
        if n >= limit:
            way = _lru_way(valid, lru, helping)
            return way if way is not None else REFUSED
        free = _free_way(valid)
        if free is not None:
            return free
        way = _lru_way(valid, lru)
        assert way is not None
        return way
    if n > limit:
        way = _lru_way(valid, lru, helping)
        if way is not None:
            return way
    free = _free_way(valid)
    if free is not None:
        return free
    if n > 0 and n >= limit:
        way = _lru_way(valid, lru, helping)
        if way is not None:
            return way
    way = _lru_way(valid, lru)
    assert way is not None
    return way


def choose_flat(matrix: SetMatrix, set_indices: Sequence[int],
                force_scalar: bool = False) -> List[int]:
    """Flat-LRU victim way for each set in ``set_indices``."""
    if not HAS_NUMPY or force_scalar:
        return [_choose_flat_row(matrix.valid[s], matrix.lru[s])
                for s in set_indices]
    idx = _np.asarray(set_indices, dtype=_np.intp)
    valid = _np.asarray(matrix.valid, dtype=bool)[idx]
    lru = _np.asarray(matrix.lru, dtype=_np.int64)[idx]
    masked = _np.where(valid, lru, _INF)
    lru_all = masked.argmin(axis=1)
    has_free = (~valid).any(axis=1)
    free = (~valid).argmax(axis=1)
    return [int(w) for w in _np.where(has_free, free, lru_all)]


def choose_protected(matrix: SetMatrix, set_indices: Sequence[int],
                     incoming_helping: Sequence[bool],
                     limits: Sequence[int],
                     force_scalar: bool = False) -> List[int]:
    """Protected-LRU victim way for each set, :data:`REFUSED` on refusal.

    ``incoming_helping[i]`` / ``limits[i]`` give the incoming block's
    class and the set's helping budget (``bank.helping_limit``) for
    ``set_indices[i]``.
    """
    if not HAS_NUMPY or force_scalar:
        return [_choose_protected_row(matrix.valid[s], matrix.helping[s],
                                      matrix.lru[s], h, limit)
                for s, h, limit in zip(set_indices, incoming_helping,
                                       limits)]
    idx = _np.asarray(set_indices, dtype=_np.intp)
    valid = _np.asarray(matrix.valid, dtype=bool)[idx]
    helping = _np.asarray(matrix.helping, dtype=bool)[idx] & valid
    lru = _np.asarray(matrix.lru, dtype=_np.int64)[idx]
    inc = _np.asarray(incoming_helping, dtype=bool)
    lim = _np.asarray(limits, dtype=_np.int64)

    n = helping.sum(axis=1)
    masked_all = _np.where(valid, lru, _INF)
    masked_help = _np.where(helping, lru, _INF)
    lru_all = masked_all.argmin(axis=1)
    lru_help = masked_help.argmin(axis=1)
    has_help = helping.any(axis=1)
    has_free = (~valid).any(axis=1)
    free = (~valid).argmax(axis=1)

    # Helping incoming: shed the LRU helping block at the budget, else
    # free way, else whole-set LRU; refuse outright at limit 0.
    way_h = _np.where(n >= lim, lru_help,
                      _np.where(has_free, free, lru_all))
    way_h = _np.where(lim == 0, REFUSED, way_h)
    # First-class incoming: the three-stage cascade, composed in
    # reverse so earlier branches override later ones.
    way_f = _np.where((n > 0) & (n >= lim) & has_help, lru_help, lru_all)
    way_f = _np.where(has_free, free, way_f)
    way_f = _np.where((n > lim) & has_help, lru_help, way_f)
    return [int(w) for w in _np.where(inc, way_h, way_f)]
