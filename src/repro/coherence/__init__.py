"""Directory coherence substrate (SGI-Origin-style, MOESI states)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .directory import Directory, DirectoryCache
    from .protocol import (CoherenceController, CoherenceStats, DataSource,
                           FetchOutcome)
    from .states import DirState

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "directory": ("Directory", "DirectoryCache"),
    "protocol": ("CoherenceController", "CoherenceStats", "DataSource",
                 "FetchOutcome"),
    "states": ("DirState",),
})
