"""Machine model: configuration, placement, and the CMP chip."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .chip import Chip
    from .config import DEFAULT_MEMORY_TILES, MachineConfig, SharingDegree
    from .placement import DomainPlacement

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "chip": ("Chip",),
    "config": ("DEFAULT_MEMORY_TILES", "MachineConfig", "SharingDegree"),
    "placement": ("DomainPlacement",),
})
