"""Set-associative cache array with pluggable replacement.

The array maps each resident block to a per-line value.  Sets are
backed by insertion-ordered dicts: hit promotion (for LRU) deletes and
re-inserts the key, victim selection delegates to the replacement
policy.  All operations are O(1) for LRU and FIFO.  The simulator's
private stacks and L2 domains keep a :class:`SetAssocCache` as the
container of their sets and drive those dicts directly (see
:mod:`repro.caches.hierarchy`).

This class is purely *functional* cache state — it knows nothing about
latency, coherence, or the interconnect.  Timing composition happens in
:mod:`repro.machine.chip`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .geometry import CacheGeometry
from .replacement import LruPolicy, ReplacementPolicy

__all__ = ["SetAssocCache"]


class SetAssocCache:
    """A set-associative cache mapping block numbers to line objects.

    Parameters
    ----------
    geometry:
        Shape of the array (capacity, associativity, block size).
    policy:
        Replacement policy; defaults to LRU, matching the paper.
    name:
        Diagnostic label, e.g. ``"core3/L1"`` or ``"l2/domain0"``.
    """

    __slots__ = ("geometry", "policy", "name", "_sets", "_set_mask",
                 "_promotes", "_assoc")

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: Optional[ReplacementPolicy] = None,
        name: str = "cache",
    ):
        self.geometry = geometry
        self.policy = (policy or LruPolicy()).clone()
        self.name = name
        self._sets: list = [{} for _ in range(geometry.num_sets)]
        self._set_mask = geometry.num_sets - 1
        # read on every hit and fill: the policy's flag and the geometry
        # are fixed for the array's life
        self._promotes = self.policy.promotes_on_hit
        self._assoc = geometry.assoc

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------

    def lookup(self, block: int) -> Optional[object]:
        """Return the line object for ``block``, updating recency;
        ``None`` on a miss."""
        cache_set = self._sets[block & self._set_mask]
        line = cache_set.get(block)
        if line is None:
            return None
        if self._promotes:
            del cache_set[block]
            cache_set[block] = line
        return line

    def peek(self, block: int) -> Optional[object]:
        """Return the line object without affecting recency."""
        return self._sets[block & self._set_mask].get(block)

    def insert(self, block: int, line: object) -> Optional[Tuple[int, object]]:
        """Install ``block``; return ``(victim_block, victim_line)`` if one
        was evicted, else ``None``.

        Inserting a block that is already present replaces its line
        object (and refreshes recency) without eviction.
        """
        cache_set = self._sets[block & self._set_mask]
        if block in cache_set:
            del cache_set[block]
            cache_set[block] = line
            return None
        evicted = None
        if len(cache_set) >= self._assoc:
            victim = self.policy.victim(cache_set)
            evicted = (victim, cache_set.pop(victim))
        cache_set[block] = line
        return evicted

    def invalidate(self, block: int) -> Optional[object]:
        """Remove ``block`` if present; return its line object."""
        return self._sets[block & self._set_mask].pop(block, None)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def __contains__(self, block: int) -> bool:
        return block in self._sets[block & self._set_mask]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def contents(self) -> Iterator[Tuple[int, object]]:
        """Iterate ``(block, line)`` over every resident line."""
        for cache_set in self._sets:
            yield from cache_set.items()

    def __repr__(self) -> str:
        return f"SetAssocCache({self.name!r}, {self.geometry.describe()})"
