"""2D-mesh network-on-chip substrate (Table 2 'Network' rows)."""

from repro.noc.message import MessageKind
from repro.noc.network import Network
from repro.noc.topology import MeshTopology

__all__ = ["MessageKind", "Network", "MeshTopology"]
