"""Per-cache statistics."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheStats"]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache array."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0
