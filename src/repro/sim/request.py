"""Demand-access outcome types and the Figure 6 supplier taxonomy."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Supplier(enum.Enum):
    """Who supplied the data — the decomposition axis of Figure 6."""

    L1_LOCAL = "local L1"          # hit in the requesting core's L1
    L1_REMOTE = "remote L1"        # cache-to-cache transfer from another L1
    L2_LOCAL = "local/private L2"  # bank attached to the requester's router
    L2_SHARED = "shared L2"        # shared-map bank at another router
    L2_REMOTE = "remote L2"        # another core's private-partition bank
    OFFCHIP = "off-chip"


# Dense per-member index for hot paths (flat per-supplier arrays in
# the system's demand-access counts, indexed by both engines).
for _i, _supplier in enumerate(Supplier):
    _supplier.idx = _i


@dataclass(frozen=True)
class AccessOutcome:
    """Timing result of one demand access."""

    complete: int        # absolute cycle the data is usable by the core
    supplier: Supplier
