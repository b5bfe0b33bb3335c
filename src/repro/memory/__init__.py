"""Off-chip memory substrate."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .controller import (DEFAULT_MEMORY_LATENCY, MemoryController,
                             MemorySystem)

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "controller": ("DEFAULT_MEMORY_LATENCY", "MemoryController",
                   "MemorySystem"),
})
