"""On-chip network substrate: mesh topology, flit-level and analytical models."""

from .analytical import HOP_CYCLES, AnalyticalMesh
from .network import FlitNetwork
from .packet import FLIT_BYTES, Flit, MessageClass, Packet, flits_for
from .router import PORTS, Port, Router
from .topology import MeshTopology

__all__ = [
    "HOP_CYCLES",
    "AnalyticalMesh",
    "FlitNetwork",
    "FLIT_BYTES",
    "Flit",
    "MessageClass",
    "Packet",
    "flits_for",
    "PORTS",
    "Port",
    "Router",
    "MeshTopology",
]
