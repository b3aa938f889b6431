"""Interconnect model: packets, NICs, and the fabric."""

from .fabric import Fabric, NetworkConfig, RankNic
from .message import Packet, PacketKind

__all__ = ["Fabric", "NetworkConfig", "RankNic", "Packet", "PacketKind"]
