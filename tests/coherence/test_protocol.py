"""Tests for the MOESI directory protocol state machine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.directory import Directory, decode_entry, sharer_list
from repro.coherence.protocol import CoherenceController, DataSource
from repro.coherence.states import DirState
from repro.errors import CoherenceError


def controller(num_domains=4):
    return CoherenceController(Directory(16), num_domains=num_domains)


def entry(c, block):
    """The decoded directory entry of ``block`` (INVALID if untracked)."""
    code = c.directory.peek(block)
    return decode_entry(0 if code is None else code)


def is_sharer(e, domain):
    return bool(e.sharers >> domain & 1)


class TestReadMisses:
    def test_cold_read_from_memory(self):
        c = controller()
        outcome = c.fetch(10, domain=0, is_write=False)
        assert outcome.source == DataSource.MEMORY
        assert not outcome.fill_dirty
        e = entry(c, 10)
        assert e.state == DirState.SHARED
        assert is_sharer(e, 0)

    def test_second_read_is_clean_c2c(self):
        c = controller()
        c.fetch(10, 0, False)
        outcome = c.fetch(10, 1, False)
        assert outcome.source == DataSource.C2C_CLEAN
        assert outcome.provider_domain == 0
        assert bin(entry(c, 10).sharers).count("1") == 2

    def test_read_of_modified_is_dirty_c2c(self):
        c = controller()
        c.fetch(10, 0, True)
        outcome = c.fetch(10, 1, False)
        assert outcome.source == DataSource.C2C_DIRTY
        assert outcome.provider_domain == 0
        e = entry(c, 10)
        assert e.state == DirState.OWNED
        assert e.owner == 0
        assert is_sharer(e, 1)
        assert not outcome.fill_dirty  # requester gets a clean copy


class TestWriteMisses:
    def test_cold_write_from_memory(self):
        c = controller()
        outcome = c.fetch(10, 0, True)
        assert outcome.source == DataSource.MEMORY
        assert outcome.fill_dirty
        e = entry(c, 10)
        assert e.state == DirState.MODIFIED
        assert e.owner == 0

    def test_write_invalidates_sharers(self):
        c = controller()
        c.fetch(10, 0, False)
        c.fetch(10, 1, False)
        outcome = c.fetch(10, 2, True)
        assert outcome.source == DataSource.C2C_CLEAN
        assert set(outcome.invalidate_domains) == {0, 1}
        assert outcome.fill_dirty
        e = entry(c, 10)
        assert e.state == DirState.MODIFIED
        assert sharer_list(e.sharers) == [2]

    def test_write_steals_modified(self):
        c = controller()
        c.fetch(10, 0, True)
        outcome = c.fetch(10, 1, True)
        assert outcome.source == DataSource.C2C_DIRTY
        assert outcome.provider_domain == 0
        assert 0 in outcome.invalidate_domains
        e = entry(c, 10)
        assert e.owner == 1
        assert e.state == DirState.MODIFIED


class TestUpgrades:
    def test_sole_sharer_upgrade(self):
        c = controller()
        c.fetch(10, 0, False)
        outcome = c.upgrade(10, 0)
        assert outcome.source == DataSource.NONE
        assert outcome.invalidate_domains == ()
        assert entry(c, 10).state == DirState.MODIFIED

    def test_upgrade_invalidates_other_sharers(self):
        c = controller()
        c.fetch(10, 0, False)
        c.fetch(10, 1, False)
        outcome = c.upgrade(10, 1)
        assert outcome.invalidate_domains == (0,)
        e = entry(c, 10)
        assert e.owner == 1
        assert sharer_list(e.sharers) == [1]

    def test_upgrade_from_owned_state_writes_back(self):
        c = controller()
        c.fetch(10, 0, True)   # 0 MODIFIED
        c.fetch(10, 1, False)  # OWNED by 0, shared with 1
        outcome = c.upgrade(10, 1)
        assert outcome.memory_writeback
        assert 0 in outcome.invalidate_domains

    def test_upgrade_by_non_sharer_rejected(self):
        c = controller()
        c.fetch(10, 0, False)
        with pytest.raises(CoherenceError):
            c.upgrade(10, 2)


class TestEvictionNotifications:
    def test_last_sharer_eviction_invalidates_entry(self):
        c = controller()
        c.fetch(10, 0, False)
        c.domain_evicted(10, 0, was_dirty=False)
        assert c.directory.peek(10) is None

    def test_owner_eviction_writes_back(self):
        c = controller()
        c.fetch(10, 0, True)
        c.fetch(10, 1, False)  # OWNED by 0
        before = c.stats.writebacks
        c.domain_evicted(10, 0, was_dirty=True)
        assert c.stats.writebacks == before + 1
        e = entry(c, 10)
        assert e.state == DirState.SHARED
        assert sharer_list(e.sharers) == [1]

    def test_eviction_after_directory_invalidation_is_noop(self):
        c = controller()
        c.fetch(10, 0, False)
        c.fetch(10, 1, True)  # invalidates domain 0 at the directory
        c.domain_evicted(10, 0, was_dirty=False)  # late notification
        assert entry(c, 10).owner == 1


class TestInvariantChecking:
    def test_miss_by_listed_sharer_detected(self):
        c = controller()
        c.fetch(10, 0, False)
        with pytest.raises(CoherenceError, match="sharer"):
            c.fetch(10, 0, False)

    def test_check_invariants_clean_directory(self):
        c = controller()
        c.fetch(1, 0, False)
        c.fetch(1, 1, False)
        c.fetch(2, 2, True)
        c.check_invariants()

    def test_check_invariants_against_residency(self):
        c = controller()
        c.fetch(1, 0, False)
        with pytest.raises(CoherenceError, match="does not hold"):
            c.check_invariants(resident=[set(), set(), set(), set()])

    def test_domain_range_checked(self):
        c = controller(num_domains=2)
        with pytest.raises(CoherenceError):
            c.fetch(1, 5, False)


class TestStats:
    def test_c2c_fractions(self):
        c = controller()
        c.fetch(1, 0, False)       # memory
        c.fetch(1, 1, False)       # clean c2c
        c.fetch(2, 0, True)        # memory
        c.fetch(2, 1, False)       # dirty c2c
        assert c.stats.c2c_total == 2
        assert c.stats.memory_fetches == 2
        assert c.stats.c2c_fraction == 0.5
        assert c.stats.dirty_fraction == 0.5


class TestProtocolProperties:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3),
                              st.booleans()), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_random_traffic_preserves_invariants(self, ops):
        """Random fetch/evict traffic never corrupts the directory."""
        c = controller()
        resident = [set() for _ in range(4)]
        for block, domain, is_write in ops:
            if block in resident[domain]:
                e = entry(c, block)
                if is_write and e.owner != domain:
                    outcome = c.upgrade(block, domain)
                    for victim in outcome.invalidate_domains:
                        resident[victim].discard(block)
            else:
                outcome = c.fetch(block, domain, is_write)
                for victim in outcome.invalidate_domains:
                    if victim != domain:
                        resident[victim].discard(block)
                resident[domain].add(block)
            c.check_invariants(resident=resident)
