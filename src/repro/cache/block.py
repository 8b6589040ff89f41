"""L2 line records and their classes.

SP-NUCA distinguishes blocks by a *private bit*; ESP-NUCA adds two
second-class ("helping") kinds on top — replicas and victims (Section
3.1). The enum captures all four; plain architectures (S-NUCA, tiled
private, D-NUCA, ...) use only the kinds they need.

:class:`L2Line` is the one record kept per resident L2 line (docs/
engine.md, "State layout"). It carries the line's tag and class, its
coherence state (tokens, dirty), its LRU stamp, where it sits (bank,
set, way), the link to the next copy of the same block in its set, and
the per-architecture flags ASR and Cooperative Caching need. The same
object is the token ledger's record of the copy, so a miss never builds
a separate holding or walks a second directory to find one.
"""

from __future__ import annotations

import enum
from typing import Optional


class BlockClass(enum.Enum):
    PRIVATE = "private"   # first-class: single-core data, private mapping
    SHARED = "shared"     # first-class: multi-core data, shared mapping
    REPLICA = "replica"   # helping: local copy of a shared block
    VICTIM = "victim"     # helping: remote private data kept in shared space

    # ``is_helping`` / ``is_first_class`` / ``idx`` are plain per-member
    # attributes (stamped below, outside the class body — a property
    # here would be a data descriptor and block the assignment). They
    # are read on every allocation and lookup, where an attribute load
    # beats a frozenset-membership property, and ``idx`` indexes the
    # per-class counter lists without hashing the member.
    is_helping: bool
    is_first_class: bool
    idx: int


FIRST_CLASS = frozenset({BlockClass.PRIVATE, BlockClass.SHARED})
HELPING = frozenset({BlockClass.REPLICA, BlockClass.VICTIM})

for _idx, _member in enumerate(BlockClass):
    _member.is_helping = _member in HELPING
    _member.is_first_class = _member in FIRST_CLASS
    _member.idx = _idx
del _idx, _member


class L2Line:
    """One resident L2 line.

    ``block`` is the full block address (byte address >> B), so tag
    comparison under either interpretation of Figure 1b is exact.
    ``owner`` is the core whose partition the block belongs to: the
    allocating core for PRIVATE, the replicating core for REPLICA, the
    original owner for VICTIM; -1 for SHARED (owned by the chip).
    ``tokens`` is this copy's share of the coherence tokens.

    ``bank_id`` / ``set_index`` / ``way`` locate the line while it is
    resident (``way`` is -1 otherwise); ``next`` is the next resident
    copy of the same block in the same set, in way order (the bank's
    per-set tag map points at the lowest-way copy). Only
    :class:`~repro.cache.bank.CacheBank` writes these four.

    ``replica`` marks ASR's selective replicas; ``spilled`` and
    ``replicated_hint`` are Cooperative Caching's one-chance-forwarding
    mark and its allocation-time replication hint (``None`` until set).
    """

    __slots__ = ("block", "cls", "owner", "dirty", "tokens", "lru",
                 "bank_id", "set_index", "way", "next",
                 "replica", "spilled", "replicated_hint")

    def __init__(self, block: int, cls: BlockClass, owner: int = -1,
                 dirty: bool = False, tokens: int = 0) -> None:
        self.block = block
        self.cls = cls
        self.owner = owner
        self.dirty = dirty
        self.tokens = tokens
        self.lru = 0
        self.bank_id = -1
        self.set_index = -1
        self.way = -1
        self.next: Optional[L2Line] = None
        self.replica = False
        self.spilled = False
        self.replicated_hint: Optional[bool] = None

    @property
    def is_helping(self) -> bool:
        return self.cls.is_helping

    @property
    def is_first_class(self) -> bool:
        return self.cls.is_first_class

    def __repr__(self) -> str:
        return (f"L2Line(block={self.block:#x}, cls={self.cls.name}, "
                f"owner={self.owner}, tokens={self.tokens}, "
                f"dirty={self.dirty}, bank={self.bank_id}, "
                f"set={self.set_index}, way={self.way})")
