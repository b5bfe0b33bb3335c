"""Directory coherence substrate (SGI-Origin-style, MOESI states)."""

from .directory import Directory, DirectoryCache
from .protocol import CoherenceController, CoherenceStats, DataSource, FetchOutcome
from .states import DirState

__all__ = [
    "Directory",
    "DirectoryCache",
    "CoherenceController",
    "CoherenceStats",
    "DataSource",
    "FetchOutcome",
    "DirState",
]
