"""Unit tests for the batched contention-path kernels.

The :class:`~repro.sim.vector.contention.ContentionSession` shadows the
scalar timing methods (``Network.arrival``, ``MemoryController.service``
/ ``post_writeback``, ``NucaArchitecture.bank_service``) with deferred
kernels for the span of one fast phase. These tests pin the session
mechanics directly — the end-to-end guarantee (full simulations byte-
identical to the reference engine) lives in test_engine_equivalence.py.
"""

from __future__ import annotations

from repro.noc.message import MessageKind
from repro.sim.request import Supplier
from repro.sim.vector.contention import ContentionSession

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


def drive(system, session):
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
    if session is not None:
        session.uninstall()  # flushes the deferred statistics
    return times


class TestInstallUninstall:
    def test_kernels_shadow_then_restore_the_class_methods(self):
        system = fresh_system()
        session = ContentionSession(system)
        session.install()
        assert "arrival" in vars(system.network)
        assert "bank_service" in vars(system.architecture)
        for mc in system.memory.controllers:
            assert "service" in vars(mc)
            assert "post_writeback" in vars(mc)
        session.uninstall()
        assert "arrival" not in vars(system.network)
        assert "bank_service" not in vars(system.architecture)
        for mc in system.memory.controllers:
            assert "service" not in vars(mc)
            assert "post_writeback" not in vars(mc)
        assert system.network.arrival.__func__ \
            is type(system.network).arrival

    def test_controller_busy_state_written_back(self):
        system = fresh_system()
        session = ContentionSession(system)
        session.install()
        mc = system.memory.controllers[0]
        first = mc.service(100)
        assert first == 100 + mc.latency
        assert mc._busy_until == 0  # deferred: object untouched mid-phase
        session.uninstall()
        assert mc._busy_until == 100 + mc.occupancy

    def test_uninstall_without_install_is_a_noop(self):
        system = fresh_system()
        session = ContentionSession(system)
        session.uninstall()
        assert "arrival" not in vars(system.network)


class TestScalarEquivalence:
    def test_timing_state_and_statistics_match_the_scalar_methods(self):
        plain = fresh_system()
        kernel = fresh_system()
        session = ContentionSession(kernel)
        session.install()

        plain_times = drive(plain, None)
        kernel_times = drive(kernel, session)

        assert kernel_times == plain_times
        assert kernel.network._link_busy == plain.network._link_busy
        assert kernel.architecture._bank_busy == plain.architecture._bank_busy
        assert [mc._busy_until for mc in kernel.memory.controllers] \
            == [mc._busy_until for mc in plain.memory.controllers]
        assert kernel.stats.to_dict() == plain.stats.to_dict()

    def test_flush_is_idempotent(self):
        system = fresh_system()
        session = ContentionSession(system)
        session.install()
        drive(system, session)  # uninstall flushes once
        before = system.stats.to_dict()
        session.flush()
        assert system.stats.to_dict() == before


class TestDeferredServeStats:
    def test_supplier_records_land_in_the_live_registry(self):
        system = fresh_system()
        session = ContentionSession(system)
        rec = session.sup_rec[Supplier.OFFCHIP.idx]
        rec[0] = 3       # count
        rec[1] = 900     # cycles
        rec[2 + 4] = 3   # histogram bucket
        session.l1_hits[2] = 5
        session.l1_misses[2] = 3
        session.flush()
        assert system._access_count[Supplier.OFFCHIP].value == 3
        assert system._access_cycles[Supplier.OFFCHIP].value == 900
        hist = system._access_hist[Supplier.OFFCHIP]
        assert hist.count == 3 and hist.total == 900
        assert hist.buckets[4] == 3
        assert system.l1s[2].hits == 5
        assert system.l1s[2].misses == 3
        # Flushed arrays are zeroed: a second flush adds nothing.
        session.flush()
        assert system._access_count[Supplier.OFFCHIP].value == 3
        assert system.l1s[2].hits == 5
