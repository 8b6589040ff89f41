"""Unit tests for the contention timing path and its statistics flush.

Both engines reserve links, banks and memory controllers through the
same methods (``Network.arrival``, ``MemoryController.service`` /
``post_writeback``, ``NucaArchitecture.bank_service``), which count
into flat arrays that ``CmpSystem.flush`` lands in the registry at its
flush points (``reset_stats``, ``result``, ``finalize``). These tests
pin the timing answers and the flushed statistics directly — the
end-to-end guarantee (full simulations byte-identical across engines)
lives in test_engine_equivalence.py.
"""

from __future__ import annotations

import pytest

from repro.common.statsreg import flatten
from repro.noc.message import MessageKind
from repro.sim.cpu import TraceItem, TraceKind
from repro.sim.engines import ENGINES, build_engine
from repro.sim.request import Supplier

from tests.util import build


def fresh_system():
    return build("esp-nuca", check_tokens=False)


#: A scripted timing sequence with deliberately out-of-time-order
#: arrivals (later calls carry earlier timestamps), exercising the
#: capped-wait branches of every busy-until reservation.
NOC_CALLS = [
    (MessageKind.REQUEST, 0, 3, 100),
    (MessageKind.RESPONSE_DATA, 3, 0, 90),
    (MessageKind.REQUEST, 0, 3, 10),       # stamped before the frontier
    (MessageKind.RESPONSE_CTRL, 1, 6, 0),
    (MessageKind.REQUEST, 0, 3, 11),
    (MessageKind.WRITEBACK, 6, 1, 5),
    (MessageKind.REQUEST, 2, 2, 40),       # zero-hop: no link traffic
]
MC_CALLS = [(0, 50), (0, 40), (1, 10), (0, 41), (0, 42), (1, 9)]
BANK_CALLS = [(0, 5, True), (0, 6, False), (3, 0, True), (0, 7, True)]

#: The sequence's answers, recorded from the scalar methods before they
#: took the flat-count form: returned times, busy-until state, and every
#: non-zero NoC / memory statistic after the flush.
EXPECTED_TIMES = [115, 105, 37, 14, 38, 15, 40, 400, 440, 360, 480, 520,
                  400, 12, 14, 7, 21]
EXPECTED_LINK_BUSY = [101, 106, 111, 0, 0, 10, 0, 105, 100, 95, 0, 0, 15,
                      0, 0, 0, 0, 0, 10, 0]
EXPECTED_BANK_BUSY = [21, 0, 0, 7] + [0] * 28
EXPECTED_MC_BUSY = [210, 90]
EXPECTED_STATS = {
    "mem.mc0.demand": 4, "mem.mc0.queueing": 267, "mem.mc0.writebacks": 4,
    "mem.mc1.demand": 2, "mem.mc1.queueing": 41, "mem.mc1.writebacks": 2,
    "noc.flits": 36, "noc.hops": 16, "noc.messages": 7, "noc.queueing": 28,
    "noc.kinds.request": 4, "noc.kinds.response_ctrl": 1,
    "noc.kinds.response_data": 1, "noc.kinds.writeback": 1,
    "noc.links.r0-r1.messages": 3, "noc.links.r0-r1.queueing": 8,
    "noc.links.r1-r0.messages": 1,
    "noc.links.r1-r2.messages": 4, "noc.links.r1-r2.queueing": 12,
    "noc.links.r2-r1.messages": 1,
    "noc.links.r2-r3.messages": 3, "noc.links.r2-r3.queueing": 8,
    "noc.links.r2-r6.messages": 1, "noc.links.r3-r2.messages": 1,
    "noc.links.r5-r1.messages": 1, "noc.links.r6-r5.messages": 1,
}


def drive(system):
    """Run the scripted sequence; returns every returned time."""
    times = []
    for kind, src, dst, t in NOC_CALLS:
        times.append(system.network.arrival(kind, src, dst, t))
    for mc_index, t in MC_CALLS:
        mc = system.memory.controllers[mc_index]
        times.append(mc.service(t))
        mc.post_writeback(t + 1)
    for bank_id, t, hit in BANK_CALLS:
        times.append(system.architecture.bank_service(bank_id, t, hit))
    return times


class TestScalarEquivalence:
    def test_timing_state_and_statistics_match_the_scalar_methods(self):
        system = fresh_system()
        expected = flatten(system.stats.to_dict())
        expected.update(EXPECTED_STATS)

        assert drive(system) == EXPECTED_TIMES
        assert system.network._link_busy == EXPECTED_LINK_BUSY
        assert system.architecture._bank_busy == EXPECTED_BANK_BUSY
        assert [mc._busy_until for mc in system.memory.controllers] \
            == EXPECTED_MC_BUSY
        system.flush()
        assert flatten(system.stats.to_dict()) == expected

    def test_flush_is_idempotent(self):
        system = fresh_system()
        drive(system)
        system.flush()
        before = system.stats.to_dict()
        system.flush()
        system.network.flush()
        system.memory.flush()
        assert system.stats.to_dict() == before


class TestDeferredServeStats:
    def test_supplier_records_land_in_the_live_registry(self):
        system = fresh_system()
        rec = system._access_rec[Supplier.OFFCHIP.idx]
        rec[0] = 3       # count
        rec[1] = 900     # cycles
        rec[2 + 4] = 3   # histogram bucket
        system._l1_hits[2] = 5
        system._l1_misses[2] = 3
        system.flush()
        offchip = Supplier.OFFCHIP.idx
        assert system._access_count[offchip].value == 3
        assert system._access_cycles[offchip].value == 900
        hist = system._access_hist[offchip]
        assert hist.count == 3 and hist.total == 900
        assert hist.buckets[4] == 3
        assert system.stats.get("l1.core2.hits").value == 5
        assert system.stats.get("l1.core2.misses").value == 3
        # Flushed arrays are zeroed: a second flush adds nothing.
        system.flush()
        assert system._access_count[offchip].value == 3
        assert system.stats.get("l1.core2.hits").value == 5


class TestWarmupReset:
    @staticmethod
    def run(engine, warmup):
        """Each core reads 8 private blocks twice: the first pass misses
        (NoC and off-chip traffic), the second hits in the L1."""
        system = fresh_system()
        traces = []
        for core in range(system.config.num_cores):
            blocks = [0x1000 * (core + 1) + i for i in range(8)]
            traces.append([TraceItem(gap=2, block=b, kind=TraceKind.LOAD)
                           for b in blocks * 2])
        return build_engine(system, traces, engine).run(
            max_refs_per_core=16 - warmup, warmup_refs_per_core=warmup)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_warmup_traffic_absent_from_finalize(self, engine):
        cold = self.run(engine, warmup=0)
        assert cold.noc_messages > 0 and cold.offchip_demand > 0
        result = self.run(engine, warmup=8)
        assert result.noc_messages == 0
        assert result.noc_queueing == 0
        assert result.offchip_demand == 0
        assert result.l1_misses == 0
        assert result.l1_hits == 8 * 8
        assert result.supplier_count[Supplier.L1_LOCAL] == 8 * 8
        assert result.supplier_count[Supplier.OFFCHIP] == 0
        assert result.stats["noc"]["flits"] == 0
        assert result.stats["mem"]["mc0"]["demand"] == 0
