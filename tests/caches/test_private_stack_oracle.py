"""Differential test: the private stack and L2 domain against line-object oracles.

:class:`ObjectStack` is the private stack as it was before the sets
became ``{block: dirty}`` dicts, and :class:`ObjectDomain` the L2
domain as it was before its lines became packed int codes: one line
object per fill, with every access going through
:class:`SetAssocCache` ``lookup``, ``insert``, ``peek`` and
``invalidate``.  They are kept here as the oracle.  A
:class:`CoreCacheStack` pair attached to a small two-slot
:class:`L2Domain` and an :class:`ObjectStack` pair attached to an
:class:`ObjectDomain` of the same shape are driven through the same
random operation sequence.  After every step these must agree: the
private contents in LRU order with their dirty flags, each domain
line's ``l1_mask``/``l1_owner``/``dirty`` (decoded from its code on the
packed side), and the write-backs to memory.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.geometry import CacheGeometry
from repro.caches.hierarchy import CoreCacheStack, L2Domain, decode_line
from repro.caches.setassoc import SetAssocCache
from repro.errors import SimulationError


class _Line:
    __slots__ = ("dirty",)

    def __init__(self, dirty=False):
        self.dirty = dirty


class _L2Line:
    """An L2 line: dirtiness, the member-L1 sharer mask and owner slot,
    and the VM that brought it in."""

    __slots__ = ("dirty", "l1_mask", "l1_owner", "vm_id")

    def __init__(self, dirty=False, vm_id=-1):
        self.dirty = dirty
        self.l1_mask = 0
        self.l1_owner = -1
        self.vm_id = vm_id

    def drop_sharer(self, slot):
        self.l1_mask &= ~(1 << slot)
        if self.l1_owner == slot:
            self.l1_owner = -1

    def sharers(self):
        return [slot for slot in range(self.l1_mask.bit_length())
                if self.l1_mask >> slot & 1]


class ObjectDomain:
    """One L2 domain, one :class:`_L2Line` per resident block."""

    def __init__(self, domain_id, geometry, core_ids):
        self.domain_id = domain_id
        self.cache = SetAssocCache(geometry)
        self.slot_of = {cid: slot for slot, cid in enumerate(core_ids)}
        self.stacks = [None] * len(core_ids)
        self.writebacks_to_memory = []

    def attach(self, stack):
        stack.domain = self
        stack.slot = self.slot_of[stack.core_id]
        self.stacks[stack.slot] = stack

    def peek(self, block):
        return self.cache.peek(block)

    def fill(self, block, dirty, vm_id, requester_slot):
        line = _L2Line(dirty, vm_id)
        line.l1_mask = 1 << requester_slot
        if dirty:
            line.l1_owner = requester_slot
        evicted = self.cache.insert(block, line)
        if evicted is None:
            return []
        victim, victim_line = evicted
        victim_dirty = self._back_invalidate(victim, victim_line)
        if victim_dirty:
            self.writebacks_to_memory.append(victim)
        return [(victim, victim_dirty)]

    def invalidate(self, block):
        line = self.cache.invalidate(block)
        if line is None:
            return False
        return self._back_invalidate(block, line)

    def note_private_eviction(self, block, slot):
        line = self.cache.peek(block)
        if line is not None:
            line.drop_sharer(slot)

    def writeback(self, block, slot):
        line = self.cache.peek(block)
        if line is not None:
            line.dirty = True
            if line.l1_owner == slot:
                line.l1_owner = -1
        else:
            self.writebacks_to_memory.append(block)

    def dirty_private_holder(self, block, exclude_slot):
        line = self.cache.peek(block)
        if line is None:
            return None
        owner = line.l1_owner
        if owner == -1 or owner == exclude_slot:
            return None
        stack = self.stacks[owner]
        if stack is not None and stack.holds_dirty(block):
            return owner
        line.l1_owner = -1
        return None

    def downgrade_owner(self, block, owner_slot):
        line = self.cache.peek(block)
        if line is None:
            return
        stack = self.stacks[owner_slot]
        if stack is not None:
            stack.set_dirty(block, False)
        line.dirty = True
        line.l1_owner = -1

    def _back_invalidate(self, block, line):
        dirty = line.dirty
        for slot in line.sharers():
            stack = self.stacks[slot]
            if stack is not None and stack.invalidate(block):
                dirty = True
        return dirty


class ObjectStack:
    """Private L0 + L1 of one core, one :class:`_Line` per resident block."""

    def __init__(self, core_id, l0_geometry, l1_geometry):
        self.core_id = core_id
        self.l0 = SetAssocCache(l0_geometry)
        self.l1 = SetAssocCache(l1_geometry)
        self.domain = None
        self.slot = -1

    def probe(self, block):
        if self.l0.lookup(block) is not None:
            return 0
        line = self.l1.lookup(block)
        if line is None:
            return None
        self._fill_l0(block, line.dirty)
        return 1

    def mark_dirty(self, block):
        for cache in (self.l0, self.l1):
            line = cache.peek(block)
            if line is not None:
                line.dirty = True
        line = self.domain.cache.peek(block)
        if line is not None:
            line.l1_owner = self.slot
            line.l1_mask |= 1 << self.slot

    def fill(self, block, dirty):
        domain = self.domain
        evicted = self.l1.insert(block, _Line(dirty))
        if evicted is not None:
            victim, victim_line = evicted
            l0_line = self.l0.invalidate(victim)
            if domain is None:
                raise SimulationError("evicted before being attached")
            if victim_line.dirty or (l0_line is not None and l0_line.dirty):
                domain.writeback(victim, self.slot)
            domain.note_private_eviction(victim, self.slot)
        self._fill_l0(block, dirty)
        if domain is not None:
            line = domain.cache.peek(block)
            if line is not None:
                line.l1_mask |= 1 << self.slot
                if dirty:
                    line.l1_owner = self.slot

    def invalidate(self, block):
        dirty = False
        for cache in (self.l0, self.l1):
            line = cache.invalidate(block)
            if line is not None and line.dirty:
                dirty = True
        return dirty

    def set_dirty(self, block, dirty):
        for cache in (self.l0, self.l1):
            line = cache.peek(block)
            if line is not None:
                line.dirty = dirty

    def holds(self, block):
        return block in self.l1 or block in self.l0

    def holds_dirty(self, block):
        return any(
            line is not None and line.dirty
            for line in (self.l0.peek(block), self.l1.peek(block))
        )

    def _fill_l0(self, block, dirty):
        evicted = self.l0.insert(block, _Line(dirty))
        if evicted is None:
            return
        victim, victim_line = evicted
        if victim_line.dirty:
            l1_line = self.l1.peek(victim)
            if l1_line is not None:
                l1_line.dirty = True
            elif self.domain is not None:
                self.domain.writeback(victim, self.slot)


def geometry(lines, assoc):
    return CacheGeometry(size_bytes=lines * 64, assoc=assoc, latency=1)


def build(stack_class, domain_class):
    # a 2-line L0, a 4-set L1 and a 16-line L2 over 24 blocks: every
    # level evicts, and L2 evictions back-invalidate private copies
    domain = domain_class(0, geometry(16, assoc=4), [0, 1])
    stacks = [stack_class(core, geometry(2, 2), geometry(8, 2))
              for core in (0, 1)]
    for stack in stacks:
        domain.attach(stack)
    return domain, stacks


def apply(op, slot, block, flag, domain, stacks):
    """One step as the chip issues it; returns what the step observed."""
    stack = stacks[slot]
    if op == "fill":
        victims = []
        if domain.peek(block) is None:
            victims = domain.fill(block, flag, slot, slot)
        stack.fill(block, flag)
        return victims
    if op == "probe":
        return stack.probe(block)
    if op == "write-hit":
        level = stack.probe(block)
        if level is not None:
            stack.mark_dirty(block)
        return level
    if op == "mark_dirty":
        stack.mark_dirty(block)
        return None
    if op == "invalidate":
        dirty = stack.invalidate(block)
        domain.note_private_eviction(block, slot)
        return dirty
    if op == "downgrade_owner":
        domain.downgrade_owner(block, slot)
        return None
    if op == "dirty_private_holder":
        return domain.dirty_private_holder(block, slot if flag else -1)
    if op == "domain-invalidate":
        return domain.invalidate(block)
    assert op == "holds"
    return stack.holds(block), stack.holds_dirty(block)


def _dirty(value):
    return value if isinstance(value, bool) else value.dirty


def _line(value):
    line = decode_line(value) if isinstance(value, int) else value
    return line.l1_mask, line.l1_owner, line.dirty, line.vm_id


def snapshot(domain, stacks):
    private = [
        [(block, _dirty(value)) for block, value in cache.contents()]
        for stack in stacks for cache in (stack.l0, stack.l1)
    ]
    lines = [(block, *_line(value)) for block, value in domain.cache.contents()]
    return private, lines, list(domain.writebacks_to_memory)


OPS = ("fill", "fill", "fill", "probe", "write-hit", "mark_dirty",
       "invalidate", "downgrade_owner", "dirty_private_holder",
       "domain-invalidate", "holds")

steps = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 1), st.integers(0, 23),
              st.booleans()),
    min_size=30, max_size=120,
)


@given(steps=steps)
@settings(max_examples=150, deadline=None)
def test_stack_matches_line_object_oracle(steps):
    new = build(CoreCacheStack, L2Domain)
    oracle = build(ObjectStack, ObjectDomain)
    for index, (op, slot, block, flag) in enumerate(steps):
        got = apply(op, slot, block, flag, *new)
        want = apply(op, slot, block, flag, *oracle)
        assert got == want, (index, op, slot, block, flag)
        assert snapshot(*new) == snapshot(*oracle), (index, op, slot, block)
