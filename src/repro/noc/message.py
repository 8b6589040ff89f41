"""On-chip message kinds and their flit counts.

The functional layer resolves what happens; the timing layer charges
each message by its kind (:meth:`repro.noc.network.Network.arrival`).
"""

from __future__ import annotations

import enum


class MessageKind(enum.Enum):
    REQUEST = "request"          # L1 -> L2 / L2 -> L2 control, 1 flit
    RESPONSE_DATA = "data"       # 64B data payload, 5 flits on 128-bit links
    RESPONSE_CTRL = "ack"        # token/ack response, 1 flit
    WRITEBACK = "writeback"      # data eviction traffic
    FORWARD = "forward"          # protocol forwarding between controllers


#: Flit counts on the 128-bit links of Table 2 (64-byte payload = 4
#: data flits + 1 head flit).
FLITS = {
    MessageKind.REQUEST: 1,
    MessageKind.RESPONSE_DATA: 5,
    MessageKind.RESPONSE_CTRL: 1,
    MessageKind.WRITEBACK: 5,
    MessageKind.FORWARD: 1,
}

# Dense per-member fields for hot paths: ``kind.idx`` (enumeration
# order) indexes flat arrays and ``kind.flits`` replaces a dict hash —
# Enum.__hash__ is a Python-level call that shows up once per message
# otherwise.
for _i, _kind in enumerate(MessageKind):
    _kind.idx = _i
    _kind.flits = FLITS[_kind]
