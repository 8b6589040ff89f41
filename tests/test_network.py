"""Mesh timing model: latency, serialization, bounded queueing."""

from repro.common.config import SystemConfig
from repro.noc.message import FLITS, MessageKind
from repro.noc.network import Network


def fresh_network(contention: bool = True) -> Network:
    return Network(SystemConfig(), model_contention=contention)


def stat(net: Network, path: str) -> int:
    """A NoC statistic as the registry holds it after a flush."""
    net.flush()
    return net.stats.get(path).value


class TestUncontendedLatency:
    def test_latency_is_hops_times_hop_latency(self):
        net = fresh_network(contention=False)
        assert net.arrival(MessageKind.REQUEST, 0, 3, 100) == 100 + 3 * 5
        assert net.arrival(MessageKind.REQUEST, 0, 7, 0) == 4 * 5

    def test_same_router_is_free(self):
        net = fresh_network()
        assert net.arrival(MessageKind.REQUEST, 2, 2, 50) == 50

    def test_latency_helper(self):
        net = fresh_network()
        assert net.latency(0, 7) == 20


class TestContention:
    def test_back_to_back_data_serializes(self):
        net = fresh_network()
        first = net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 0)
        second = net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 0)
        assert first == 5
        # Second waits for the 5-flit occupancy of the first.
        assert second == 5 + FLITS[MessageKind.RESPONSE_DATA]

    def test_disjoint_links_do_not_interact(self):
        net = fresh_network()
        net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 0)
        assert net.arrival(MessageKind.RESPONSE_DATA, 4, 5, 0) == 5

    def test_queueing_is_bounded(self):
        # A reservation stamped far in the future must not block an
        # earlier-stamped message for more than the cap.
        net = fresh_network()
        net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 10_000)
        early = net.arrival(MessageKind.REQUEST, 0, 1, 0)
        cap = 4 * FLITS[MessageKind.REQUEST]
        assert early <= 5 + cap

    def test_queueing_accounted(self):
        net = fresh_network()
        net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 0)
        net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 0)
        assert stat(net, "queueing") > 0

    def test_out_of_order_wait_charged_exactly_at_cap(self):
        # Reservations are stamped in reference order, not time order: a
        # future-stamped message must charge an earlier-stamped one at
        # most ``cap = 4 * flits``, and its own reservation must survive.
        net = fresh_network()
        net.arrival(MessageKind.RESPONSE_DATA, 0, 1, 100_000)
        cap = 4 * FLITS[MessageKind.REQUEST]
        assert net.arrival(MessageKind.REQUEST, 0, 1, 0) == cap + 5
        assert stat(net, "queueing") == cap
        # The 100_005 reservation was kept, not overwritten by the
        # early message: traffic near it still queues behind it.
        assert net.arrival(MessageKind.REQUEST, 0, 1, 100_004) == 100_010


class TestStatistics:
    def test_message_and_flit_counters(self):
        net = fresh_network()
        net.arrival(MessageKind.REQUEST, 0, 2, 0)
        assert stat(net, "messages") == 1
        assert stat(net, "hops") == 2
        assert stat(net, "flits") == 2  # 1 flit x 2 hops

    def test_zero_hop_message_costs_no_flits(self):
        # src == dst traverses no links: the message is counted but no
        # link flits are charged (regression: flits * max(hops, 1)).
        net = fresh_network()
        net.arrival(MessageKind.RESPONSE_DATA, 2, 2, 50)
        assert stat(net, "messages") == 1
        assert stat(net, "hops") == 0
        assert stat(net, "flits") == 0

    def test_reset(self):
        net = fresh_network()
        net.arrival(MessageKind.REQUEST, 0, 2, 0)
        net.reset_stats()
        assert stat(net, "messages") == 0
        assert stat(net, "queueing") == 0
        assert stat(net, "kinds.request") == 0

    def test_per_kind_counters(self):
        net = fresh_network()
        net.arrival(MessageKind.REQUEST, 0, 2, 0)
        net.arrival(MessageKind.REQUEST, 0, 2, 0)
        net.arrival(MessageKind.RESPONSE_DATA, 2, 0, 0)
        assert stat(net, "kinds.request") == 2
        assert stat(net, "kinds.response_data") == 1

    def test_sp_indirection_costs_traffic(self):
        """Section 2.3: SP-NUCA's private-bank indirection 'will
        slightly increase on-chip traffic' for shared data."""
        from tests.util import access, build
        from tests.test_arch_private import evict_from_l1

        def shared_traffic(arch_name):
            system = build(arch_name, check_tokens=False)
            block = 0x911
            while system.architecture.is_local_bank(
                    0, system.amap.shared_bank(block)):
                block += 1
            access(system, 3, block)
            access(system, 0, block)
            evict_from_l1(system, 0, block)
            evict_from_l1(system, 3, block)
            before = system.result.noc_messages
            access(system, 0, block)  # shared-bank L2 hit
            return system.result.noc_messages - before

        assert shared_traffic("sp-nuca") >= shared_traffic("shared")
