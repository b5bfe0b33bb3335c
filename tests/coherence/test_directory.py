"""Tests for the striped directory and directory caches."""

import pytest

from repro.coherence.directory import Directory, DirectoryCache, DirectoryEntry
from repro.coherence.states import DirState
from repro.errors import ConfigurationError


class TestDirectoryEntry:
    def test_sharer_bitmask(self):
        e = DirectoryEntry()
        e.add_sharer(0)
        e.add_sharer(3)
        assert e.is_sharer(0) and e.is_sharer(3)
        assert not e.is_sharer(1)
        assert e.sharer_list() == [0, 3]
        assert e.num_sharers == 2
        e.drop_sharer(0)
        assert e.sharer_list() == [3]

    def test_initial_state(self):
        e = DirectoryEntry()
        assert e.state == DirState.INVALID
        assert e.owner == -1
        assert e.sharers == 0


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
        assert d.peek(10) is None
        entry = d.entry(10)
        assert d.peek(10) is entry
        assert len(d) == 1

    def test_forget_only_invalid(self):
        d = Directory(4)
        entry = d.entry(10)
        entry.state = DirState.SHARED
        d.forget(10)
        assert d.peek(10) is not None
        entry.state = DirState.INVALID
        d.forget(10)
        assert d.peek(10) is None


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
