"""Fault injection: every coherence invariant check must actually fire.

These tests corrupt protocol state on purpose and assert the checker
catches each class of violation — guarding the guards, so a future
refactoring cannot silently neuter them.  Directory corruptions are
written as packed entry codes, the form the directory stores.
"""

import pytest

from repro.coherence.directory import Directory, decode_entry, encode_entry
from repro.coherence.protocol import CoherenceController
from repro.errors import CoherenceError
from repro.machine.chip import Chip
from repro.machine.config import MachineConfig, SharingDegree


def controller():
    return CoherenceController(Directory(16), num_domains=4)


def corrupt(c, block, **fields):
    """Overwrite fields of ``block``'s directory entry (INVALID if
    untracked) and store the re-packed code."""
    entries = c.directory._entries
    entry = decode_entry(entries.get(block, 0))._replace(**fields)
    entries[block] = encode_entry(*entry)


class TestDirectoryCorruptionDetected:
    def test_invalid_with_residue(self):
        c = controller()
        corrupt(c, 1, sharers=0b1)
        with pytest.raises(CoherenceError, match="INVALID"):
            c.check_invariants()

    def test_shared_with_owner(self):
        c = controller()
        c.fetch(1, 0, False)
        corrupt(c, 1, owner=0)
        with pytest.raises(CoherenceError, match="SHARED entry with owner"):
            c.check_invariants()

    def test_shared_without_sharers(self):
        c = controller()
        c.fetch(1, 0, False)
        corrupt(c, 1, sharers=0)
        with pytest.raises(CoherenceError, match="no sharers"):
            c.check_invariants()

    def test_modified_without_owner(self):
        c = controller()
        c.fetch(1, 0, True)
        corrupt(c, 1, owner=-1)
        with pytest.raises(CoherenceError, match="without owner"):
            c.check_invariants()

    def test_modified_with_extra_sharer(self):
        c = controller()
        c.fetch(1, 0, True)
        corrupt(c, 1, sharers=decode_entry(c.directory.peek(1)).sharers | 1 << 2)
        with pytest.raises(CoherenceError, match="multiple sharers"):
            c.check_invariants()

    def test_owner_outside_sharer_mask(self):
        c = controller()
        c.fetch(1, 0, True)
        corrupt(c, 1, sharers=0b10, owner=0)
        with pytest.raises(CoherenceError, match="owner not in sharer"):
            c.check_invariants()

    def test_phantom_sharer_vs_residency(self):
        c = controller()
        c.fetch(1, 0, False)
        with pytest.raises(CoherenceError, match="does not hold"):
            c.check_invariants(resident=[set(), set(), set(), set()])


class TestProtocolMisuseDetected:
    def test_lost_eviction_notification_caught_on_refetch(self):
        """If a domain silently drops a block (no notification) and then
        misses on it, the protocol flags the stale sharer bit."""
        c = controller()
        c.fetch(1, 0, False)
        # domain 0 'loses' the block without telling the directory,
        # then requests it again:
        with pytest.raises(CoherenceError, match="out of sync"):
            c.fetch(1, 0, False)

    def test_upgrade_without_copy(self):
        c = controller()
        with pytest.raises(CoherenceError, match="non-sharer"):
            c.upgrade(42, 1)


class TestChipLevelCorruptionDetected:
    def test_forced_domain_desync_is_caught(self):
        chip = Chip(MachineConfig(sharing=SharingDegree.SHARED_4).scaled(1 / 16))
        chip.access(0, 7, False, 0)
        # rip the line out of the domain without notifying anyone
        domain = chip.domains[chip.domain_of_core(0)]
        domain.cache.invalidate(7)
        chip.stacks[0].invalidate(7)
        with pytest.raises(CoherenceError):
            chip.check_coherence_invariants()

    def test_clean_chip_passes(self):
        chip = Chip(MachineConfig(sharing=SharingDegree.SHARED_4).scaled(1 / 16))
        for i in range(200):
            chip.access(i % 16, i % 37, i % 3 == 0, i * 30)
        chip.check_coherence_invariants()
