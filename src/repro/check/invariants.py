"""Runtime invariant checker for the simulated machine state.

Every memory reference leaves the system in a quiesced state, so after
each access (or every ``sample``-th, for cheap always-on use) the
checker sweeps the whole machine and asserts six invariant families:

``tokens``
    Exact token conservation per block across L1s / L2 / memory, plus
    the directory cross-check in *both* directions: every ledger
    holding points at a resident copy in the recorded place, and every
    resident L1 line / L2 entry is registered in the ledger.
``helping``
    The bank's per-set helping count (``CacheBank.helping``) equals a
    recount of the resident replica/victim lines of the set, and its
    fill count the number of resident lines.
``duplicates``
    At most one resident copy per (block, class, owner) per set — a
    duplicate is unfindable through ``CacheBank.peek`` and corrupts the
    helping count on removal — and the set's tag map indexes exactly
    its resident lines, each chain in way order, each line's recorded
    way its real one.
``budget``
    ``0 <= nmax <= ways - 1`` on every budgeted bank, reference sets
    hold zero helping blocks, and per set the helping count never
    *rises* while above the current limit (a set may legally sit over
    budget right after an ``nmax`` decrease, but protected LRU must
    only converge it downward — see ``ProtectedLru``; a step-to-step
    property, so it is enforced only at ``sample=1``). When a duel
    controller is attached, its per-bank state and the bank's ``nmax``
    must agree.
``lru``
    LRU stamps are strictly monotone per bank: no two resident entries
    share a stamp and none exceeds the bank's stamp counter.
``classifier``
    Classifier/ledger owner agreement: an on-chip block is classified;
    owned-class entries (PRIVATE/VICTIM/REPLICA) name a real core;
    for a PRIVATE block every owned entry and every L1 copy belongs to
    the owner; a SHARED block has no PRIVATE/VICTIM entries left.

Violations are reported through the stats registry (``check.*``) and a
``check`` trace instant before (optionally) raising
:class:`InvariantViolation`, so a non-raising sweep still leaves an
observable record of everything that broke.

The sweep is O(machine state) and runs per access at ``sample=1``, so
it deliberately reads private fields (``ledger._states``,
``l1._sets``, ``bank._stamp``) in one consolidated pass instead of
going through the per-block public accessors — the checker is
privileged introspection, not an API consumer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set, Tuple

from repro.cache.bank import SetRole
from repro.cache.block import BlockClass
from repro.common.statsreg import Scope
from repro.core.private_bit import Classification

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import CmpSystem


class InvariantViolation(AssertionError):
    """A machine-state invariant does not hold.

    ``family`` names the invariant group (see the module docstring) so
    harnesses can bucket failures without parsing messages.
    """

    def __init__(self, family: str, message: str) -> None:
        super().__init__(f"[{family}] {message}")
        self.family = family


#: The invariant families, in reporting order.
FAMILIES = ("tokens", "helping", "duplicates", "budget", "lru", "classifier")

_OWNED = (BlockClass.PRIVATE, BlockClass.VICTIM)


class InvariantChecker:
    """Sweeps a :class:`~repro.sim.system.CmpSystem` for broken invariants.

    ``sample=N`` checks after every Nth demand access (1 = every
    access). ``raise_on_violation=False`` turns violations into
    counters/trace events only — a sweep then reports *all* broken
    invariants instead of stopping at the first.
    """

    def __init__(self, system: "CmpSystem", sample: int = 1,
                 raise_on_violation: bool = True) -> None:
        if sample < 1:
            raise ValueError("sample period must be >= 1")
        self.system = system
        self.sample = sample
        self.raise_on_violation = raise_on_violation
        self._accesses = 0
        # Last observed helping count per (bank, set), updated on every
        # sweep: the over-budget convergence invariant compares against
        # it (only meaningful at sample=1).
        self._last_helping: Dict[Tuple[int, int], int] = {}
        # Mounted at ``check`` by the system.
        self.stats = Scope()
        self._sweeps = self.stats.counter("sweeps")
        self._violations = self.stats.counter("violations")
        family_scope = self.stats.scope("by_family")
        self._family = {f: family_scope.counter(f) for f in FAMILIES}

    @property
    def sweeps(self) -> int:
        return self._sweeps.value

    @property
    def violations(self) -> int:
        return self._violations.value

    def violations_of(self, family: str) -> int:
        return self._family[family].value

    # -- entry points -------------------------------------------------------

    def after_access(self) -> None:
        """Called by the system after each demand access completes."""
        self._accesses += 1
        if self._accesses % self.sample == 0:
            self.sweep()

    def sweep(self) -> None:
        """Run every invariant family once over the whole machine."""
        self._sweeps.value += 1
        # Pass 1 — the ledger: conservation, holding sanity, classifier
        # agreement; collects the registered copies for pass 2.
        registered_l1, registered_l2 = self._check_ledger()
        # Pass 2 — the caches: every resident copy must be registered
        # (and in the recorded place), plus the per-bank families.
        self._check_l1s(registered_l1)
        self._check_banks(registered_l2)
        for block, core in registered_l1.values():
            self._violate(
                "tokens", f"ledger L1 holding of block {block:#x} at core "
                f"{core} is not resident")
        for block, bank_id, set_index in registered_l2.values():
            self._violate(
                "tokens", f"ledger L2 holding of block {block:#x} in bank "
                f"{bank_id} set {set_index} is not resident")

    # -- reporting ----------------------------------------------------------

    def _violate(self, family: str, message: str) -> None:
        self._violations.value += 1
        self._family[family].value += 1
        system = self.system
        tracer = system.tracer
        if tracer.enabled and tracer.wants("check"):
            tracer.instant("check", f"invariant violated: {family}",
                           ts=system.trace_now, pid=system.trace_pid(),
                           tid="checker", args={"detail": message})
        if self.raise_on_violation:
            raise InvariantViolation(family, message)

    # -- pass 1: ledger + classifier ----------------------------------------

    def _check_ledger(self):
        system = self.system
        ledger = system.ledger
        classifier = getattr(system.architecture, "classifier", None)
        stale_owned_ok = getattr(system.architecture,
                                 "classifier_stale_owned_ok", False)
        num_cores = system.config.num_cores
        total = ledger.total_tokens
        registered_l1: Dict[int, Tuple[int, int]] = {}
        registered_l2: Dict[int, Tuple[int, int, int]] = {}
        for block, state in list(ledger._states.items()):
            if state.memory_tokens < 0:
                self._violate("tokens",
                              f"block {block:#x}: negative memory tokens")
            chip = 0
            for core, line in state.l1.items():
                chip += line.tokens
                if line.block != block or line.tokens <= 0:
                    self._violate(
                        "tokens", f"block {block:#x}: bad L1 holding at "
                        f"core {core}")
                registered_l1[id(line)] = (block, core)
            for entry in state.l2:
                chip += entry.tokens
                if entry.block != block or entry.tokens <= 0:
                    self._violate(
                        "tokens", f"block {block:#x}: bad L2 holding in "
                        f"bank {entry.bank_id}")
                registered_l2[id(entry)] = (block, entry.bank_id,
                                            entry.set_index)
            if chip + state.memory_tokens != total:
                self._violate(
                    "tokens", f"block {block:#x}: "
                    f"{chip + state.memory_tokens} tokens, expected {total}")
            if classifier is None or not (state.l1 or state.l2):
                continue
            cls = classifier.classify(block)
            if cls is Classification.ABSENT:
                self._violate("classifier",
                              f"block {block:#x} is on chip but unclassified")
                continue
            owner = classifier.owner(block)
            for entry in state.l2:
                if entry.cls is BlockClass.SHARED:
                    if entry.owner != -1:
                        self._violate(
                            "classifier", f"SHARED entry of block "
                            f"{block:#x} carries owner {entry.owner}")
                elif not 0 <= entry.owner < num_cores:
                    self._violate(
                        "classifier", f"{entry.cls.value} entry of block "
                        f"{block:#x} has no valid owner ({entry.owner})")
                if cls is Classification.PRIVATE:
                    if entry.cls in _OWNED and entry.owner != owner:
                        self._violate(
                            "classifier", f"private block {block:#x} owned "
                            f"by core {owner} has a {entry.cls.value} entry "
                            f"owned by {entry.owner}")
                elif entry.cls in _OWNED and not stale_owned_ok:
                    self._violate(
                        "classifier", f"shared block {block:#x} still has "
                        f"a {entry.cls.value} entry in bank "
                        f"{entry.bank_id}")
            if cls is Classification.PRIVATE:
                for core in state.l1:
                    if core != owner:
                        self._violate(
                            "classifier", f"private block {block:#x} owned "
                            f"by core {owner} has an L1 copy at core {core}")
        return registered_l1, registered_l2

    # -- pass 2: caches ------------------------------------------------------

    def _check_l1s(self, registered_l1: Dict[int, Tuple[int, int]]) -> None:
        for l1 in self.system.l1s:
            for cache_set in l1._sets:
                for block, line in cache_set.items():
                    reg = registered_l1.pop(id(line), None)
                    if reg is None:
                        self._violate(
                            "tokens", f"L1 line of block {block:#x} at core "
                            f"{l1.core_id} is unknown to the ledger")
                    elif reg != (block, l1.core_id):
                        self._violate(
                            "tokens", f"L1 line of block {block:#x} at core "
                            f"{l1.core_id} is registered as block "
                            f"{reg[0]:#x} at core {reg[1]}")

    def _check_banks(self,
                     registered_l2: Dict[int, Tuple[int, int, int]]) -> None:
        system = self.system
        duel = getattr(system.architecture, "duel", None)
        for bank in system.architecture.banks:
            if bank.nmax is not None and not 0 <= bank.nmax <= bank.ways - 1:
                self._violate(
                    "budget", f"bank {bank.bank_id} nmax {bank.nmax} "
                    f"outside [0, {bank.ways - 1}]")
            if duel is not None and bank.bank_id in duel._states:
                state = duel.state_of(bank.bank_id)
                if state.nmax != bank.nmax:
                    self._violate(
                        "budget", f"bank {bank.bank_id} nmax {bank.nmax} "
                        f"disagrees with duel state {state.nmax}")
            stamps: Set[int] = set()
            bank_stamp = bank._stamp
            for set_index, ways in enumerate(bank.lines):
                recount = 0
                resident = 0
                seen: Set[Tuple[int, BlockClass, int]] = set()
                for way, entry in enumerate(ways):
                    if entry is None:
                        continue
                    resident += 1
                    if entry.is_helping:
                        recount += 1
                    if entry.way != way:
                        self._violate(
                            "duplicates", f"bank {bank.bank_id} set "
                            f"{set_index}: line of block {entry.block:#x} "
                            f"in way {way} records way {entry.way}")
                    key = (entry.block, entry.cls, entry.owner)
                    if key in seen:
                        self._violate(
                            "duplicates", f"bank {bank.bank_id} set "
                            f"{set_index}: two resident copies of block "
                            f"{entry.block:#x} ({entry.cls.value}, owner "
                            f"{entry.owner})")
                    seen.add(key)
                    if entry.lru in stamps:
                        self._violate(
                            "lru", f"bank {bank.bank_id}: duplicate LRU "
                            f"stamp {entry.lru} (block {entry.block:#x})")
                    stamps.add(entry.lru)
                    if entry.lru > bank_stamp:
                        self._violate(
                            "lru", f"bank {bank.bank_id}: stamp {entry.lru} "
                            f"of block {entry.block:#x} exceeds the bank "
                            f"counter {bank_stamp}")
                    reg = registered_l2.pop(id(entry), None)
                    if reg is None:
                        self._violate(
                            "tokens", f"L2 entry of block {entry.block:#x} "
                            f"in bank {bank.bank_id} is unknown to the "
                            f"ledger")
                    elif reg != (entry.block, bank.bank_id, set_index):
                        self._violate(
                            "tokens", f"L2 entry of block {entry.block:#x} "
                            f"in bank {bank.bank_id} set {set_index} is "
                            f"registered at bank {reg[1]} set {reg[2]}")
                self._check_tags(bank, set_index, ways, resident)
                if recount != bank.helping[set_index]:
                    self._violate(
                        "helping", f"bank {bank.bank_id} set {set_index}: "
                        f"helping count {bank.helping[set_index]} != "
                        f"recount {recount}")
                if resident != bank.fill[set_index]:
                    self._violate(
                        "helping", f"bank {bank.bank_id} set {set_index}: "
                        f"fill count {bank.fill[set_index]} != "
                        f"{resident} resident lines")
                if recount and bank.role(set_index) is SetRole.REFERENCE:
                    self._violate(
                        "budget", f"bank {bank.bank_id} reference set "
                        f"{set_index} holds {recount} helping blocks")
                limit = bank.helping_limit(set_index)
                key2 = (bank.bank_id, set_index)
                if self.sample == 1 and recount > limit:
                    # Over-budget is legal (the duel may lower nmax
                    # below the resident count at any time), but the
                    # count must then only converge downward. A
                    # step-to-step property: sound only when every
                    # access is swept, hence the sample gate.
                    last = self._last_helping.get(key2, 0)
                    if recount > max(last, limit):
                        self._violate(
                            "budget", f"bank {bank.bank_id} set {set_index}:"
                            f" helping count rose to {recount} above limit "
                            f"{limit} (was {last})")
                self._last_helping[key2] = recount

    def _check_tags(self, bank, set_index: int, ways, resident: int
                    ) -> None:
        """The set's tag map chains list exactly its ``resident`` lines,
        each chain holding one block's copies in way order."""
        indexed = 0
        for block, line in bank.tags[set_index].items():
            last = -1
            while line is not None:
                indexed += 1
                if (line.block != block or line.way <= last
                        or not 0 <= line.way < bank.ways
                        or ways[line.way] is not line):
                    self._violate(
                        "duplicates", f"bank {bank.bank_id} set "
                        f"{set_index}: tag map entry for block {block:#x} "
                        f"does not match the way array")
                    return
                last = line.way
                line = line.next
        if indexed != resident:
            self._violate(
                "duplicates", f"bank {bank.bank_id} set {set_index}: tag "
                f"map indexes {indexed} lines, {resident} are resident")
