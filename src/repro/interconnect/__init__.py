"""On-chip network substrate: mesh topology, flit-level and analytical models."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .analytical import HOP_CYCLES, AnalyticalMesh
    from .network import FlitNetwork
    from .packet import FLIT_BYTES, Flit, MessageClass, Packet, flits_for
    from .router import PORTS, Port, Router
    from .topology import MeshTopology

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "analytical": ("HOP_CYCLES", "AnalyticalMesh"),
    "network": ("FlitNetwork",),
    "packet": ("FLIT_BYTES", "Flit", "MessageClass", "Packet", "flits_for"),
    "router": ("PORTS", "Port", "Router"),
    "topology": ("MeshTopology",),
})
