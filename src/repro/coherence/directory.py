"""Striped directory with per-tile directory caches.

Following the paper's methodology (Section IV-A), directory entries are
striped across the 16 tiles by physical address — the *home tile* of
block ``b`` is ``b mod num_tiles`` — and each tile has a directory
cache so most directory lookups avoid an off-chip access for the entry.

The full directory state (the backing store, conceptually in memory) is
a dict and is always exact; the directory cache affects *timing only*:
a lookup that misses the home tile's directory cache pays a memory
access to fetch the entry.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..caches.geometry import CacheGeometry
from ..caches.setassoc import SetAssocCache
from .states import DirState

__all__ = ["DirectoryEntry", "DirectoryCache", "Directory"]


class DirectoryEntry:
    """Global coherence state of one block.

    ``sharers`` is a bitmask over L2 *domain* ids; ``owner`` is a domain
    id or -1.  See :class:`repro.coherence.states.DirState`.
    """

    __slots__ = ("state", "owner", "sharers")

    def __init__(self) -> None:
        self.state = DirState.INVALID
        self.owner = -1
        self.sharers = 0

    def add_sharer(self, domain: int) -> None:
        self.sharers |= 1 << domain

    def drop_sharer(self, domain: int) -> None:
        self.sharers &= ~(1 << domain)

    def is_sharer(self, domain: int) -> bool:
        return bool(self.sharers & (1 << domain))

    def sharer_list(self) -> List[int]:
        mask, out, idx = self.sharers, [], 0
        while mask:
            if mask & 1:
                out.append(idx)
            mask >>= 1
            idx += 1
        return out

    @property
    def num_sharers(self) -> int:
        return bin(self.sharers).count("1")

    def __repr__(self) -> str:
        return (
            f"DirectoryEntry(state={self.state.name}, owner={self.owner}, "
            f"sharers={self.sharer_list()})"
        )


class DirectoryCache:
    """Timing filter over the directory backing store at one tile.

    ``access(block)`` returns True on a hit and counts it in
    :attr:`hits` or :attr:`misses`.  Misses install the entry (the
    caller pays the memory-latency penalty for the fetch).
    """

    #: default: 16K entries, 8-way — generous, as in the paper's setup
    #: where directory caches exist precisely to keep lookups on chip.
    DEFAULT_ENTRIES = 16 * 1024

    def __init__(self, tile_id: int, entries: int = DEFAULT_ENTRIES, assoc: int = 8):
        self._cache = SetAssocCache(self.geometry(entries, assoc),
                                    name=f"tile{tile_id}/dircache")
        self.hits = 0
        self.misses = 0

    @staticmethod
    def geometry(entries: int, assoc: int = 8) -> CacheGeometry:
        """The cache geometry of ``entries`` directory entries (raises
        on a size the associativity does not divide)."""
        return CacheGeometry(
            size_bytes=entries * 64, assoc=assoc, latency=0, block_bytes=64
        )

    def access(self, block: int) -> bool:
        if self._cache.lookup(block) is not None:
            self.hits += 1
            return True
        self.misses += 1
        self._cache.insert(block, True)  # presence is the only state
        return False


class Directory:
    """Exact global directory striped over ``num_tiles`` home tiles.

    ``caches`` holds each tile's :class:`DirectoryCache`, built on the
    tile's first :meth:`cache_access` (``None`` until then: a tile never
    looked up has no hits and no misses).
    """

    def __init__(self, num_tiles: int, dir_cache_entries: int = DirectoryCache.DEFAULT_ENTRIES):
        if num_tiles <= 0:
            raise ValueError("num_tiles must be positive")
        DirectoryCache.geometry(dir_cache_entries)  # validate eagerly
        self.num_tiles = num_tiles
        self._entries: Dict[int, DirectoryEntry] = {}
        self._cache_entries = dir_cache_entries
        self.caches: List[Optional[DirectoryCache]] = [None] * num_tiles

    def home_tile(self, block: int) -> int:
        """Home tile of a block (striped by physical address)."""
        return block % self.num_tiles

    def entry(self, block: int) -> DirectoryEntry:
        """The (always exact) directory entry, created on demand."""
        entry = self._entries.get(block)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[block] = entry
        return entry

    def peek(self, block: int) -> Optional[DirectoryEntry]:
        return self._entries.get(block)

    def cache_access(self, block: int) -> bool:
        """Directory-cache lookup at the home tile; True on hit."""
        tile = self.home_tile(block)
        cache = self.caches[tile]
        if cache is None:
            cache = self.caches[tile] = DirectoryCache(
                tile, entries=self._cache_entries)
        return cache.access(block)

    def forget(self, block: int) -> None:
        """Drop an INVALID entry to bound memory use."""
        entry = self._entries.get(block)
        if entry is not None and entry.state == DirState.INVALID:
            del self._entries[block]

    def __len__(self) -> int:
        return len(self._entries)
