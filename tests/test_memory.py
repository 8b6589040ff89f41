"""Memory controllers: latency, bandwidth queue, writebacks."""

from repro.common.config import SystemConfig
from repro.mem.controller import MemoryController, MemorySystem


def stat(component, path: str) -> int:
    """A controller statistic as the registry holds it after a flush."""
    component.flush()
    return component.stats.get(path).value


class TestController:
    def test_uncontended_latency(self):
        mc = MemoryController(latency=350, occupancy=20)
        assert mc.service(100) == 450

    def test_bandwidth_serialization(self):
        mc = MemoryController(latency=350, occupancy=20)
        assert mc.service(0) == 350
        assert mc.service(0) == 370  # queued behind one occupancy
        assert stat(mc, "demand") == 2

    def test_queueing_bounded(self):
        mc = MemoryController(latency=100, occupancy=20)
        mc.service(100_000)  # future-stamped reservation
        early = mc.service(0)
        assert early <= 100 + mc.MAX_QUEUE_SERVICES * 20

    def test_demand_queue_charge_exact_at_cap(self):
        # Out-of-time-order reservations: a future-stamped demand must
        # charge an earlier-stamped one exactly MAX_QUEUE_SERVICES
        # occupancies, and the later reservation must survive.
        mc = MemoryController(latency=100, occupancy=20)
        mc.service(100_000)
        assert mc.service(0) == mc.MAX_QUEUE_SERVICES * 20 + 100
        assert stat(mc, "queueing") == mc.MAX_QUEUE_SERVICES * 20
        assert mc.service(100_020) == 100_120  # queue frontier intact

    def test_writeback_queue_charge_is_capped(self):
        # A writeback behind a future-stamped reservation is charged at
        # most MAX_QUEUE_SERVICES services past its arrival (like
        # demand), and the later reservation survives it.
        mc = MemoryController(latency=100, occupancy=20)
        mc.service(100_000)
        mc.post_writeback(0)
        assert mc.service(100_000) == 100_000 + 20 + 100

    def test_writeback_reserved_at_arrival_time(self):
        mc = MemoryController(latency=350, occupancy=20)
        mc.post_writeback(5_000)
        # The bandwidth is consumed at 5_000: demand arriving then
        # queues behind one writeback occupancy.
        assert mc.service(5_000) == 5_020 + 350

    def test_writebacks_consume_bandwidth_without_reply(self):
        mc = MemoryController(latency=350, occupancy=20)
        mc.post_writeback(0)
        assert mc.service(0) == 370  # demand waits behind the writeback
        assert stat(mc, "writebacks") == 1

    def test_reset_stats(self):
        mc = MemoryController(latency=10, occupancy=1)
        mc.service(0)
        mc.post_writeback(0)
        mc.reset_stats()
        assert stat(mc, "demand") == 0 and stat(mc, "writebacks") == 0


class TestMemorySystem:
    def test_two_controllers(self):
        system = MemorySystem(SystemConfig())
        assert len(system.controllers) == 2

    def test_aggregate_counters(self):
        system = MemorySystem(SystemConfig())
        system.controller(0).service(0)
        system.controller(1).service(0)
        system.controller(1).post_writeback(0)
        assert stat(system, "mc0.demand") + stat(system, "mc1.demand") == 2
        assert stat(system, "mc1.writebacks") == 1
