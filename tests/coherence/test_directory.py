"""Tests for the striped directory and directory caches."""

import pytest

from repro.coherence.directory import (
    SHARER_SHIFT,
    Directory,
    DirectoryCache,
    decode_entry,
    encode_entry,
    sharer_list,
)
from repro.coherence.protocol import CoherenceController
from repro.coherence.states import DirState
from repro.errors import ConfigurationError


class TestDirectoryEntry:
    def test_sharer_bitmask(self):
        code = encode_entry(DirState.SHARED, sharers=(1 << 0) | (1 << 3))
        e = decode_entry(code)
        assert e.sharers >> 0 & 1 and e.sharers >> 3 & 1
        assert not e.sharers >> 1 & 1
        assert sharer_list(e.sharers) == [0, 3]
        assert bin(e.sharers).count("1") == 2
        dropped = decode_entry(code & ~(1 << (SHARER_SHIFT + 0)))
        assert sharer_list(dropped.sharers) == [3]

    def test_initial_state(self):
        # an untracked block reads as code 0
        e = decode_entry(0)
        assert e.state == DirState.INVALID
        assert e.owner == -1
        assert e.sharers == 0
        assert encode_entry(DirState.INVALID) == 0

    def test_fields_round_trip(self):
        for state, owner, sharers in ((DirState.MODIFIED, 0, 0b1),
                                      (DirState.OWNED, 63, 1 << 63 | 0b10),
                                      (DirState.SHARED, -1, 0b110)):
            code = encode_entry(state, owner, sharers)
            assert decode_entry(code) == (state, owner, sharers)


class TestDirStates:
    def test_has_owner(self):
        assert DirState.MODIFIED.has_owner
        assert DirState.OWNED.has_owner
        assert not DirState.SHARED.has_owner
        assert not DirState.INVALID.has_owner


class TestDirectory:
    def test_home_tile_striping(self):
        d = Directory(16)
        assert d.home_tile(0) == 0
        assert d.home_tile(17) == 1
        assert d.home_tile(31) == 15

    def test_entry_created_on_demand(self):
        d = Directory(4)
        c = CoherenceController(d, num_domains=2)
        assert d.peek(10) is None
        c.fetch(10, 0, False)
        assert decode_entry(d.peek(10)) == (DirState.SHARED, -1, 0b1)
        assert len(d) == 1

    def test_forget_only_invalid(self):
        d = Directory(4)
        c = CoherenceController(d, num_domains=2)
        c.fetch(10, 0, False)
        c.fetch(10, 1, False)
        c.domain_evicted(10, 0, was_dirty=False)
        assert decode_entry(d.peek(10)) == (DirState.SHARED, -1, 0b10)
        c.domain_evicted(10, 1, was_dirty=False)
        assert d.peek(10) is None
        assert len(d) == 0


class TestDirectoryCache:
    def test_miss_then_hit(self):
        cache = DirectoryCache(0, entries=64)
        assert cache.access(5) is False
        assert cache.access(5) is True
        assert cache.misses == 1 and cache.hits == 1

    def test_capacity_bound_evicts(self):
        cache = DirectoryCache(0, entries=8, assoc=8)
        for block in range(16):
            cache.access(block * 8)  # all map to one set
        assert cache.access(0) is False  # evicted long ago

    def test_directory_cache_access_routes_to_home(self):
        d = Directory(4, dir_cache_entries=64)
        assert d.cache_access(5) is False
        assert d.cache_access(5) is True
        # a different block with the same home tile shares that cache
        assert d.caches[1].hits + d.caches[1].misses == 2

    def test_tile_caches_are_built_on_first_lookup(self):
        d = Directory(4, dir_cache_entries=64)
        assert d.caches == [None] * 4
        d.cache_access(6)
        assert [c is not None for c in d.caches] == [False, False, True, False]

    def test_bad_cache_size_fails_at_construction(self):
        with pytest.raises(ConfigurationError):
            Directory(4, dir_cache_entries=12)
