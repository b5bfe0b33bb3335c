"""Tests for the private-stack / L2-domain hierarchy and inclusion."""

import pytest

from repro.caches.geometry import CacheGeometry
from repro.caches.hierarchy import (
    CoreCacheStack,
    L2Domain,
    decode_line,
    encode_line,
)
from repro.errors import ConfigurationError


def tiny_geometry(lines, assoc=2, latency=1):
    return CacheGeometry(size_bytes=lines * 64, assoc=assoc, latency=latency)


def build_domain(num_cores=2, l2_lines=32):
    domain = L2Domain(0, tiny_geometry(l2_lines, assoc=4), list(range(num_cores)))
    stacks = []
    for core in range(num_cores):
        stack = CoreCacheStack(core, tiny_geometry(4), tiny_geometry(8))
        domain.attach(stack)
        stacks.append(stack)
    return domain, stacks


class TestAttachment:
    def test_attach_sets_slot(self):
        domain, stacks = build_domain()
        assert stacks[0].slot == 0
        assert stacks[1].slot == 1
        assert stacks[0].domain is domain

    def test_attach_foreign_core_rejected(self):
        domain, _ = build_domain()
        stranger = CoreCacheStack(99, tiny_geometry(4), tiny_geometry(8))
        with pytest.raises(ConfigurationError):
            domain.attach(stranger)

    def test_empty_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            L2Domain(0, tiny_geometry(8), [])


class TestProbeAndFill:
    def test_probe_miss_then_fill_then_hits(self):
        domain, (stack, _) = build_domain()
        assert stack.probe(10) is None
        domain.fill(10, dirty=False, vm_id=0, requester_slot=0)
        stack.fill(10, dirty=False)
        assert stack.probe(10) == 0  # L0 hit after fill

    def test_l1_hit_promotes_to_l0(self):
        domain, (stack, _) = build_domain()
        domain.fill(10, dirty=False, vm_id=0, requester_slot=0)
        stack.fill(10, dirty=False)
        # push 10 out of the 4-line L0 but keep it in the 8-line L1
        for block in (11, 12, 13, 14):
            domain.fill(block, dirty=False, vm_id=0, requester_slot=0)
            stack.fill(block, dirty=False)
        assert stack.l0.peek(10) is None
        assert stack.probe(10) == 1
        assert stack.l0.peek(10) is not None

    def test_fill_registers_in_inclusion_vector(self):
        domain, (stack, _) = build_domain()
        domain.fill(10, dirty=False, vm_id=0, requester_slot=0)
        stack.fill(10, dirty=False)
        line = decode_line(domain.peek(10))
        assert line.l1_mask & 0b1

    def test_mark_dirty_claims_domain_ownership(self):
        domain, (stack, _) = build_domain()
        domain.fill(10, dirty=False, vm_id=0, requester_slot=0)
        stack.fill(10, dirty=False)
        stack.probe(10)
        stack.mark_dirty(10)
        assert stack.holds_dirty(10)
        assert decode_line(domain.peek(10)).l1_owner == 0


class TestInclusion:
    def test_l2_eviction_back_invalidates_private_copies(self):
        domain, (stack, _) = build_domain(l2_lines=8)  # 2 sets x 4 ways
        # fill 5 blocks mapping to set 0 (stride 2 with 2 sets)
        victims = []
        for i in range(5):
            block = i * 2
            evicted = domain.fill(block, dirty=False, vm_id=0, requester_slot=0)
            stack.fill(block, dirty=False)
            victims.extend(evicted)
        assert victims, "L2 set should have overflowed"
        for victim, _dirty in victims:
            assert not stack.holds(victim), "inclusion violated"

    def test_dirty_private_copy_makes_victim_dirty(self):
        domain, (stack, _) = build_domain(l2_lines=8)
        domain.fill(0, dirty=False, vm_id=0, requester_slot=0)
        stack.fill(0, dirty=True)   # private dirty, L2 line clean
        stack.mark_dirty(0)
        evicted = []
        for i in range(1, 5):
            evicted.extend(domain.fill(i * 2, dirty=False, vm_id=0,
                                       requester_slot=0))
        dirty_victims = [b for b, dirty in evicted if dirty]
        assert 0 in dirty_victims

    def test_l1_eviction_writes_back_into_l2(self):
        domain, (stack, _) = build_domain(l2_lines=32)
        domain.fill(0, dirty=False, vm_id=0, requester_slot=0)
        stack.fill(0, dirty=True)
        stack.mark_dirty(0)
        # overflow the 8-line L1 (4 sets x 2 ways): blocks with stride 4
        for i in range(1, 4):
            block = i * 4
            domain.fill(block, dirty=False, vm_id=0, requester_slot=0)
            stack.fill(block, dirty=False)
        assert not stack.holds(0)
        assert decode_line(domain.peek(0)).dirty, "dirty data lost on L1 eviction"


class TestIntraDomainTransfers:
    def test_dirty_private_holder_detection(self):
        domain, (a, b) = build_domain()
        domain.fill(7, dirty=False, vm_id=0, requester_slot=0)
        a.fill(7, dirty=True)
        a.mark_dirty(7)
        assert domain.dirty_private_holder(7, exclude_slot=1) == 0
        assert domain.dirty_private_holder(7, exclude_slot=0) is None

    def test_stale_owner_hint_cleared(self):
        domain, (a, b) = build_domain()
        domain.fill(7, dirty=False, vm_id=0, requester_slot=0)
        a.fill(7, dirty=True)
        a.mark_dirty(7)
        a.invalidate(7)  # silently drop the private copy
        assert domain.dirty_private_holder(7, exclude_slot=1) is None
        assert decode_line(domain.peek(7)).l1_owner == -1

    def test_downgrade_pulls_data_into_l2(self):
        domain, (a, b) = build_domain()
        domain.fill(7, dirty=False, vm_id=0, requester_slot=0)
        a.fill(7, dirty=True)
        a.mark_dirty(7)
        domain.downgrade_owner(7, 0)
        line = decode_line(domain.peek(7))
        assert line.dirty
        assert line.l1_owner == -1
        assert not a.holds_dirty(7)


class TestDomainInvalidate:
    def test_invalidate_reports_dirty(self):
        domain, (a, _) = build_domain()
        domain.fill(9, dirty=True, vm_id=0, requester_slot=0)
        a.fill(9, dirty=False)
        assert domain.invalidate(9) is True
        assert domain.peek(9) is None
        assert not a.holds(9)

    def test_invalidate_absent_block(self):
        domain, _ = build_domain()
        assert domain.invalidate(1234) is False


class TestSnapshots:
    def test_occupancy_by_vm(self):
        domain, _ = build_domain()
        domain.fill(1, dirty=False, vm_id=0, requester_slot=0)
        domain.fill(2, dirty=False, vm_id=0, requester_slot=0)
        domain.fill(3, dirty=False, vm_id=1, requester_slot=1)
        assert domain.occupancy_by_vm() == {0: 2, 1: 1}

    def test_resident_blocks(self):
        domain, _ = build_domain()
        domain.fill(1, dirty=False, vm_id=0, requester_slot=0)
        domain.fill(5, dirty=False, vm_id=0, requester_slot=0)
        assert domain.resident_blocks() == {1, 5}


class TestLineCodes:
    def test_encode_decode_round_trip(self):
        for fields in ((False, -1, 0, -1), (True, 3, 0b1010, 1),
                       (True, 0xFFFE, (1 << 16) - 1, 15)):
            dirty, vm_id, mask, owner = fields
            code = encode_line(dirty, vm_id, l1_mask=mask, l1_owner=owner)
            assert tuple(decode_line(code)) == (dirty, mask, owner, vm_id)

    def test_fill_packs_requester_and_vm(self):
        domain, _ = build_domain()
        domain.fill(4, dirty=True, vm_id=2, requester_slot=1)
        domain.fill(5, dirty=False, vm_id=0, requester_slot=0)
        assert decode_line(domain.peek(4)) == (True, 0b10, 1, 2)
        assert decode_line(domain.peek(5)) == (False, 0b01, -1, 0)
