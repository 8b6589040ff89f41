"""numpy views of column traces (docs/engine.md, "State layout").

A materialized per-core trace is a :class:`~repro.sim.cpu.TraceColumns`
— parallel ``gaps`` / ``blocks`` / ``writes`` / ``deps`` columns — so
the engine's hot walks index plain Python lists of scalars instead of
touching ``TraceItem`` attributes.
Bulk classification runs over numpy views of the same columns, built
the first time a trace needs them and kept on the trace, so every run
point sharing a memoized trace shares its views too. numpy is
optional: when it is unavailable the engine falls back to the scalar
classification path with identical results.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.cpu import TraceColumns

try:  # soft dependency: everything below degrades to scalar paths
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

HAS_NUMPY = _np is not None

#: Window length below which scalar classification wins: building /
#: intersecting numpy index arrays has a fixed cost that only pays off
#: when many references are classified in one shot.
BULK_THRESHOLD = 512


def numpy_views(trace: TraceColumns):
    """``(blocks, writes)`` numpy views of ``trace``, or ``None`` when
    numpy is missing or the trace is too short for the bulk path."""
    views = trace.numpy_views
    if views is None:
        if HAS_NUMPY and len(trace) >= BULK_THRESHOLD:
            views = (_np.asarray(trace.blocks, dtype=_np.int64),
                     _np.asarray(trace.writes, dtype=bool))
        else:
            views = ()
        trace.numpy_views = views
    return views or None


def local_prefix_length(trace: TraceColumns, pos: int, limit: int,
                        resident_np, full_np) -> Optional[int]:
    """Length of the maximal local prefix of ``trace[pos:limit]``, or
    ``None`` when the bulk path does not apply.

    A reference is *local* when its block is L1-resident (reads) or
    resident with all tokens (writes). ``resident_np`` must be exact;
    ``full_np`` may be conservatively stale-low (a write misclassified
    as contention is served through the full reference path with
    identical results — see docs/engine.md, "Conservative
    classification").
    """
    if resident_np is None:
        return None
    views = numpy_views(trace)
    if views is None:
        return None
    blocks = views[0][pos:limit]
    writes = views[1][pos:limit]
    local = _np.isin(blocks, resident_np, assume_unique=False)
    if writes.any():
        if full_np is None or len(full_np) == 0:
            local &= ~writes
        else:
            local &= (~writes) | _np.isin(blocks, full_np)
    stops = _np.flatnonzero(~local)
    return int(stops[0]) if len(stops) else limit - pos


def as_block_array(blocks: set):
    """A set of block ids as a numpy array (``None`` without numpy)."""
    if not HAS_NUMPY:
        return None
    return _np.fromiter(blocks, dtype=_np.int64, count=len(blocks))
