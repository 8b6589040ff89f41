"""An L2 NUCA bank: line storage, LRU stamping, set roles, statistics.

The bank is policy-agnostic: which (bank, set) a block lands in and
with which :class:`~repro.cache.block.BlockClass` is the architecture's
decision; the bank provides exact storage, LRU bookkeeping, replacement
delegation, and — for ESP-NUCA — the set-role machinery (reference /
explorer / monitored-conventional sets) plus the ``nmax`` helping-block
budget that the dueling controller adjusts.

Storage (docs/engine.md, "State layout") is one
:class:`~repro.cache.block.L2Line` per resident line, held in per-set
way arrays (``lines[set][way]``) behind a per-set tag map
(``tags[set]``: block -> the lowest-way resident copy, further copies
chained through ``L2Line.next`` in way order), with per-set helping and
fill counts kept alongside. A lookup is one dict probe; a replacement
scans only the set it replaces in.

A bound bank (:meth:`bind`) also owns the allocation protocol:
:meth:`allocate` chooses the way, installs and stamps the line,
withdraws a displaced line's tokens and hands it to the architecture's
``on_l2_eviction``, and registers the new line with the token ledger —
in that order, one call per allocation.

Statistics live in the bank's own :class:`~repro.common.statsreg.Scope`
(``hits.<class>``, ``misses``, ``allocations``, ``refusals``,
``evictions``); :class:`~repro.sim.system.CmpSystem` mounts it at
``l2.bank<i>`` so warm-up reset and per-bank reporting walk the
registry instead of hand-listed fields. The attribute API
(``bank.misses``, ``bank.hits[cls]``, ...) reads the same counters.
"""

from __future__ import annotations

import enum
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Tuple)

from repro.cache.block import BlockClass, L2Line
from repro.cache.replacement import FlatLru, ReplacementPolicy
from repro.common.statsreg import Scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.architectures.base import NucaArchitecture

class SetRole(enum.Enum):
    NORMAL = "normal"                # conventional, unmonitored
    CONVENTIONAL_SAMPLE = "sample"   # conventional, feeds HR_C
    REFERENCE = "reference"          # no helping blocks, feeds HR_R
    EXPLORER = "explorer"            # nmax + 1 helping blocks, feeds HR_E


class CacheBank:
    """One physical NUCA bank."""

    def __init__(self, bank_id: int, num_sets: int, ways: int,
                 policy: ReplacementPolicy | None = None) -> None:
        self.bank_id = bank_id
        self.num_sets = num_sets
        self.ways = ways
        self.policy = policy or FlatLru()
        self.lines: List[List[Optional[L2Line]]] = [
            [None] * ways for _ in range(num_sets)]
        self.tags: List[Dict[int, L2Line]] = [{} for _ in range(num_sets)]
        self.helping: List[int] = [0] * num_sets
        self.fill: List[int] = [0] * num_sets
        self._stamp = 0
        # Set by bind(): the architecture whose eviction/refusal hooks
        # allocate() calls, and the ledger it registers lines with.
        self.arch: Optional["NucaArchitecture"] = None
        self.ledger = None
        # ESP machinery; inert unless an architecture configures it.
        self.roles: Dict[int, SetRole] = {}
        self._nmax: Optional[int] = None  # None => helping blocks unbounded
        self._limits: Optional[List[int]] = None  # per-set helping caps
        self.monitor: Optional[Callable[["CacheBank", int, bool], None]] = None
        # Statistics: one scope per bank, mounted by the system; the
        # per-class hit counters are indexed by ``BlockClass.idx``.
        self.stats = Scope()
        hit_scope = self.stats.scope("hits")
        self._hits = [hit_scope.counter(cls.value) for cls in BlockClass]
        self._misses = self.stats.counter("misses")
        self._allocations = self.stats.counter("allocations")
        self._refusals = self.stats.counter("refusals")
        self._evictions = self.stats.counter("evictions")

    # -- wiring ----------------------------------------------------------------

    def bind(self, arch: "NucaArchitecture") -> None:
        """Route allocate()'s evictions and refusals to ``arch`` and its
        registrations to ``arch.ledger``."""
        self.arch = arch
        self.ledger = arch.ledger

    def close(self) -> None:
        """Drop the references that tie this bank into its system."""
        self.arch = None
        self.ledger = None
        self.monitor = None

    # -- roles & helping budget ------------------------------------------------

    def assign_role(self, set_index: int, role: SetRole) -> None:
        self.roles[set_index] = role
        self._limits = None

    def role(self, set_index: int) -> SetRole:
        return self.roles.get(set_index, SetRole.NORMAL)

    @property
    def nmax(self) -> Optional[int]:
        return self._nmax

    @nmax.setter
    def nmax(self, value: Optional[int]) -> None:
        self._nmax = value
        self._limits = None

    def helping_limit(self, set_index: int) -> int:
        """Max helping blocks this set may hold (Section 3.2).

        Answered from a per-set table rebuilt lazily whenever ``nmax``
        or a set role changes: this runs once per allocation, and the
        role-dict probe plus enum comparisons were measurable there.
        """
        limits = self._limits
        if limits is None:
            limits = self._build_limits()
        return limits[set_index]

    def _build_limits(self) -> List[int]:
        nmax = self._nmax
        if nmax is None:
            limits = [self.ways] * self.num_sets
        else:
            limits = [nmax] * self.num_sets
            for set_index, role in self.roles.items():
                if role is SetRole.REFERENCE:
                    limits[set_index] = 0
                elif role is SetRole.EXPLORER:
                    limits[set_index] = min(nmax + 1, self.ways)
        self._limits = limits
        return limits

    # -- lookup ------------------------------------------------------------------

    def touch(self, line: L2Line) -> None:
        self._stamp += 1
        line.lru = self._stamp

    def peek(self, set_index: int, block: int,
             classes: Iterable[BlockClass] | None = None,
             owner: int | None = None) -> Optional[L2Line]:
        """Lowest-way resident copy of ``block`` matching the class and
        owner filters; no LRU or statistics side effects (snooping
        probes)."""
        line = self.tags[set_index].get(block)
        if classes is None:
            if owner is not None:
                while line is not None and line.owner != owner:
                    line = line.next
        else:
            while line is not None and (
                    line.cls not in classes
                    or (owner is not None and line.owner != owner)):
                line = line.next
        return line

    def lookup(self, set_index: int, block: int,
               classes: Iterable[BlockClass] | None = None,
               owner: int | None = None, touch: bool = True,
               record: bool = True) -> Optional[L2Line]:
        """Demand lookup. ``record=False`` for snooping probes that must
        not perturb LRU state or the hit-rate monitors."""
        line = self.tags[set_index].get(block)
        if line is not None and (classes is not None or owner is not None):
            line = self.peek(set_index, block, classes, owner)
        if line is not None and touch:
            self._stamp += 1
            line.lru = self._stamp
        if record:
            if line is not None:
                self._hits[line.cls.idx].value += 1
            else:
                self._misses.value += 1
            if self.monitor is not None and set_index in self.roles:
                self.monitor(self, set_index,
                             line is not None and line.cls.is_first_class)
        return line

    # -- set queries (replacement policies, checks, tests) ----------------------

    def free_way(self, set_index: int) -> Optional[int]:
        """Lowest free way of the set, or None when it is full."""
        if self.fill[set_index] >= self.ways:
            return None
        return self.lines[set_index].index(None)

    def lru_line(self, set_index: int,
                 predicate: Callable[[L2Line], bool] | None = None
                 ) -> Optional[L2Line]:
        """Least-recently-used resident line satisfying ``predicate``
        (the lowest way among equal stamps)."""
        best: Optional[L2Line] = None
        for line in self.lines[set_index]:
            if line is None or (predicate is not None and not predicate(line)):
                continue
            if best is None or line.lru < best.lru:
                best = line
        return best

    def count(self, set_index: int,
              predicate: Callable[[L2Line], bool]) -> int:
        return sum(1 for line in self.lines[set_index]
                   if line is not None and predicate(line))

    # -- mutation ---------------------------------------------------------------

    def install(self, set_index: int, way: int, line: L2Line,
                dup_check: bool = True) -> Optional[L2Line]:
        """Place ``line`` in ``way``, displacing (and returning) whatever
        held it. No stamp, statistics or ledger update: that is
        :meth:`allocate`'s job.

        A second resident copy with the same (block, class, owner)
        would be unfindable and would double-count in the helping count
        when removed — always a caller bug (distinct classes of one
        block, e.g. SHARED + REPLICA, are legitimate). ``dup_check=False``
        skips the chain walk for callers that have just proven absence.
        """
        if not 0 <= way < self.ways:
            raise IndexError(f"way {way} outside [0, {self.ways})")
        ways = self.lines[set_index]
        tags = self.tags[set_index]
        old = ways[way]
        block = line.block
        if dup_check:
            resident = tags.get(block)
            while resident is not None:
                if (resident is not old and resident.cls is line.cls
                        and resident.owner == line.owner):
                    raise ValueError(
                        f"duplicate resident copy of block {block:#x} "
                        f"({line.cls.value}, owner {line.owner})")
                resident = resident.next
        if old is not None:
            self._unlink(tags, old)
            if old.cls.is_helping:
                self.helping[set_index] -= 1
        else:
            self.fill[set_index] += 1
        ways[way] = line
        line.bank_id = self.bank_id
        line.set_index = set_index
        line.way = way
        head = tags.get(block)
        if head is None or head.way > way:
            line.next = head
            tags[block] = line
        else:
            while head.next is not None and head.next.way < way:
                head = head.next
            line.next = head.next
            head.next = line
        if line.cls.is_helping:
            self.helping[set_index] += 1
        return old

    @staticmethod
    def _unlink(tags: Dict[int, L2Line], line: L2Line) -> None:
        block = line.block
        head = tags[block]
        if head is line:
            if line.next is None:
                del tags[block]
            else:
                tags[block] = line.next
        else:
            while head.next is not line:
                head = head.next
            head.next = line.next
        line.next = None
        line.way = -1

    def allocate(self, set_index: int, line: L2Line, cascade: bool = False,
                 t: int = 0, dup_checked: bool = False
                 ) -> Tuple[bool, Optional[L2Line]]:
        """Allocate ``line`` in the set; returns ``(admitted, evicted)``.

        The replacement policy picks the way (refusal — ``admitted``
        False — only happens for helping blocks under protected LRU).
        The line is installed and stamped most recent. On a bound bank
        the displaced line's tokens are then withdrawn from the ledger
        and the line goes to the architecture's ``on_l2_eviction``
        (``cascade`` and ``t`` are passed through), and only then is the
        new line registered with the ledger — eviction handling may
        consult the ledger and must not see the newcomer. A refusal is
        reported to the architecture's ``on_l2_refusal``.
        ``dup_checked=True`` promises the caller already proved no
        resident shares the line's (block, class, owner).
        """
        way = self.policy.choose(self, set_index, line.cls)
        if way is None:
            self._refusals.value += 1
            if self.arch is not None:
                self.arch.on_l2_refusal(self.bank_id, line)
            return False, None
        evicted = self.install(set_index, way, line,
                               dup_check=not dup_checked)
        self._stamp += 1
        line.lru = self._stamp
        self._allocations.value += 1
        ledger = self.ledger
        if evicted is not None:
            self._evictions.value += 1
            if ledger is not None:
                tokens = ledger.take_from_l2(evicted.block, evicted)
                self.arch.on_l2_eviction(self.bank_id, set_index, evicted,
                                         tokens, cascade, t)
        if ledger is not None:
            ledger.register_l2(line.block, line)
        return True, evicted

    def remove(self, set_index: int, line: L2Line) -> None:
        ways = self.lines[set_index]
        way = line.way
        if not (line.set_index == set_index and 0 <= way < self.ways
                and ways[way] is line):
            raise ValueError("line is not resident in this set")
        ways[way] = None
        self._unlink(self.tags[set_index], line)
        self.fill[set_index] -= 1
        if line.cls.is_helping:
            self.helping[set_index] -= 1

    def reclassify(self, set_index: int, line: L2Line,
                   new_cls: BlockClass) -> None:
        """Change a resident line's class, keeping the helping count.

        Raises if ``line`` is not resident here: adjusting the count for
        a foreign line silently corrupts it.
        """
        way = line.way
        if not (line.set_index == set_index and 0 <= way < self.ways
                and self.lines[set_index][way] is line):
            raise ValueError("line is not resident in this set")
        if line.cls.is_helping:
            self.helping[set_index] -= 1
        line.cls = new_cls
        if new_cls.is_helping:
            self.helping[set_index] += 1

    # -- stats ----------------------------------------------------------------------

    @property
    def hits(self) -> Dict[BlockClass, int]:
        """Per-class demand hits (a read-only view of the counters)."""
        return {cls: self._hits[cls.idx].value for cls in BlockClass}

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def allocations(self) -> int:
        return self._allocations.value

    @property
    def refusals(self) -> int:
        return self._refusals.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def total_hits(self) -> int:
        return sum(c.value for c in self._hits)

    def occupancy(self) -> int:
        return sum(self.fill)

    def reset_stats(self) -> None:
        self.stats.reset()
