"""Message kinds and flit accounting."""

from repro.noc.message import FLITS, MessageKind


class TestFlits:
    def test_every_kind_priced(self):
        assert set(FLITS) == set(MessageKind)

    def test_data_messages_cost_block_plus_head(self):
        # 64B on 128-bit links: 4 data flits + 1 head.
        assert FLITS[MessageKind.RESPONSE_DATA] == 5
        assert FLITS[MessageKind.WRITEBACK] == 5

    def test_control_messages_are_single_flit(self):
        assert FLITS[MessageKind.REQUEST] == 1
        assert FLITS[MessageKind.RESPONSE_CTRL] == 1
        assert FLITS[MessageKind.FORWARD] == 1

    def test_message_flits_property(self):
        # The per-kind attribute the timing layer reads per message.
        assert all(kind.flits == FLITS[kind] for kind in MessageKind)
        assert MessageKind.RESPONSE_DATA.flits == 5
