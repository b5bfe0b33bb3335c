"""Striped directory with per-tile directory caches.

Following the paper's methodology (Section IV-A), directory entries are
striped across the 16 tiles by physical address — the *home tile* of
block ``b`` is ``b mod num_tiles`` — and each tile has a directory
cache so most directory lookups avoid an off-chip access for the entry.

The full directory state (the backing store, conceptually in memory) is
a dict and is always exact; the directory cache affects *timing only*:
a lookup that misses the home tile's directory cache pays a memory
access to fetch the entry.

An entry carries no object, so the collector has nothing to walk: its
state is one int in the backing dict (see :func:`encode_entry`), and
an untracked block reads as code 0 (INVALID, no owner, no sharers).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..caches.geometry import CacheGeometry
from .states import DirState

__all__ = ["DirectoryCache", "Directory", "EntryView", "encode_entry",
           "decode_entry", "sharer_list"]

# an entry code: bits 0-1 the DirState, bits 2-17 the owning domain's
# id + 1 (0: none), bits 18+ the mask of sharer domain ids
STATE_FIELD = 0b11
OWNER_SHIFT = 2
OWNER_FIELD = 0xFFFF << OWNER_SHIFT
SHARER_SHIFT = 18


class EntryView(NamedTuple):
    """The fields of an entry code; ``owner`` is -1 for none."""

    state: DirState
    owner: int
    sharers: int


def encode_entry(state: DirState, owner: int = -1, sharers: int = 0) -> int:
    return int(state) | (owner + 1) << OWNER_SHIFT | sharers << SHARER_SHIFT


def decode_entry(code: int) -> EntryView:
    return EntryView(DirState(code & STATE_FIELD),
                     ((code & OWNER_FIELD) >> OWNER_SHIFT) - 1,
                     code >> SHARER_SHIFT)


def sharer_list(mask: int) -> List[int]:
    """The domain ids set in a sharer mask, ascending."""
    out, idx = [], 0
    while mask:
        if mask & 1:
            out.append(idx)
        mask >>= 1
        idx += 1
    return out


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
        geometry = self.geometry(entries, assoc)
        # LRU sets of present blocks, driven directly: a hit re-inserts
        # its key and the victim is the first key
        self._sets: List[Dict[int, bool]] = [
            {} for _ in range(geometry.num_sets)]
        self._set_mask = geometry.num_sets - 1
        self._assoc = assoc
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
        cache_set = self._sets[block & self._set_mask]
        if cache_set.pop(block, False):
            cache_set[block] = True  # presence is the only state
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self._assoc:
            del cache_set[next(iter(cache_set))]
        cache_set[block] = True
        return False


class Directory:
    """Exact global directory striped over ``num_tiles`` home tiles.

    ``_entries`` maps each tracked block to its packed entry code; the
    coherence controller reads and writes those codes in place and
    drops a block whose entry returns to INVALID.  ``caches`` holds
    each tile's :class:`DirectoryCache`, built on the tile's first
    :meth:`cache_access` (``None`` until then: a tile never looked up
    has no hits and no misses).
    """

    def __init__(self, num_tiles: int, dir_cache_entries: int = DirectoryCache.DEFAULT_ENTRIES):
        if num_tiles <= 0:
            raise ValueError("num_tiles must be positive")
        DirectoryCache.geometry(dir_cache_entries)  # validate eagerly
        self.num_tiles = num_tiles
        self._entries: Dict[int, int] = {}
        self._cache_entries = dir_cache_entries
        self.caches: List[Optional[DirectoryCache]] = [None] * num_tiles

    def home_tile(self, block: int) -> int:
        """Home tile of a block (striped by physical address)."""
        return block % self.num_tiles

    def peek(self, block: int) -> Optional[int]:
        """The block's packed entry code, or ``None`` if untracked."""
        return self._entries.get(block)

    def cache_access(self, block: int) -> bool:
        """Directory-cache lookup at the home tile; True on hit."""
        tile = self.home_tile(block)
        cache = self.caches[tile]
        if cache is None:
            cache = self.caches[tile] = DirectoryCache(
                tile, entries=self._cache_entries)
        return cache.access(block)

    def __len__(self) -> int:
        return len(self._entries)
