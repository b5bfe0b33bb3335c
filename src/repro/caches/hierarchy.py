"""The three-level cache hierarchy of Table III.

Two cooperating classes implement the *functional* hierarchy state:

* :class:`CoreCacheStack` — the private L0 (8 KB) and L1 (64 KB) of one
  core.  L1 is inclusive of L0; dirty data propagates downward on
  eviction.
* :class:`L2Domain` — one last-level-cache partition shared by N cores
  (N in {1, 2, 4, 8, 16} per the paper's private / shared-N-way / fully
  shared design points).  The domain is inclusive of its member cores'
  private caches and tracks, per line, which member L1s hold copies and
  which (if any) holds the line modified.  Inclusion is what makes the
  "last private level" (L1) miss path well defined: any block cached by
  a core in the domain is guaranteed present in the domain's L2.

An L2 line carries no object, so the collector has nothing to walk:
its state is one int in the set dict (see :func:`encode_line`).

Cross-domain coherence (cache-to-cache transfers, invalidation of
remote domains) is the directory protocol's job —
:mod:`repro.coherence` — these classes only manage state *within* one
domain.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from ..errors import ConfigurationError, SimulationError
from .geometry import CacheGeometry
from .replacement import LruPolicy, ReplacementPolicy
from .setassoc import SetAssocCache

__all__ = ["CoreCacheStack", "L2Domain", "LineView", "encode_line",
           "decode_line"]

# an L2 line code: bit 0 dirty, bits 1-8 the slot + 1 of the member L1
# holding it modified (0: none), bits 9-24 the id + 1 of the VM that
# brought it in (0: none), bits 25+ the mask of member-L1 slots that
# may hold it
DIRTY = 1
OWNER_SHIFT = 1
OWNER_FIELD = 0xFF << OWNER_SHIFT
VM_SHIFT = 9
VM_FIELD = 0xFFFF << VM_SHIFT
SHARER_SHIFT = 25


class LineView(NamedTuple):
    """The fields of an L2 line code; -1 means no owner / no VM."""

    dirty: bool
    l1_mask: int
    l1_owner: int
    vm_id: int


def encode_line(dirty: bool, vm_id: int = -1, l1_mask: int = 0,
                l1_owner: int = -1) -> int:
    return (int(bool(dirty)) | (l1_owner + 1) << OWNER_SHIFT
            | (vm_id + 1) << VM_SHIFT | l1_mask << SHARER_SHIFT)


def decode_line(code: int) -> LineView:
    return LineView(bool(code & DIRTY), code >> SHARER_SHIFT,
                    ((code & OWNER_FIELD) >> OWNER_SHIFT) - 1,
                    ((code & VM_FIELD) >> VM_SHIFT) - 1)


class CoreCacheStack:
    """Private L0 + L1 of one core.

    A private line's only state is its dirty bit and the arrays are
    LRU, so each set is a ``{block: dirty}`` dict in LRU order that the
    stack drives directly: the victim is the first key, a hit re-inserts
    its key, and setting a resident key's flag keeps its position.
    ``l0``/``l1`` stay :class:`SetAssocCache` containers for inspection.

    The stack must be attached to an :class:`L2Domain` (via
    :meth:`L2Domain.attach`) before use so that private-cache evictions
    can maintain the domain's inclusion vector.
    """

    def __init__(
        self,
        core_id: int,
        l0_geometry: CacheGeometry,
        l1_geometry: CacheGeometry,
    ):
        self.core_id = core_id
        self.l0 = SetAssocCache(l0_geometry, name=f"core{core_id}/L0")
        self.l1 = SetAssocCache(l1_geometry, name=f"core{core_id}/L1")
        self.domain: Optional["L2Domain"] = None
        self.slot: int = -1
        # this core's bits in its domain's L2 line codes (set on attach)
        self._l2_sharer = 0
        self._l2_owned = 0
        self._l0_sets = self.l0._sets
        self._l0_mask = self.l0._set_mask
        self._l0_assoc = l0_geometry.assoc
        self._l1_sets = self.l1._sets
        self._l1_mask = self.l1._set_mask
        self._l1_assoc = l1_geometry.assoc

    # ------------------------------------------------------------------

    def probe(self, block: int) -> Optional[int]:
        """Look the block up in L0 then L1 (pure lookup).

        Returns 0 on an L0 hit, 1 on an L1 hit (the line is promoted
        into L0), or ``None`` on a private miss.  Writes call
        :meth:`mark_dirty` separately, *after* the machine model has
        obtained write permission from the directory.
        """
        s0 = self._l0_sets[block & self._l0_mask]
        dirty = s0.pop(block, None)
        if dirty is not None:
            s0[block] = dirty
            return 0
        s1 = self._l1_sets[block & self._l1_mask]
        dirty = s1.pop(block, None)
        if dirty is None:
            return None
        s1[block] = dirty
        if len(s0) >= self._l0_assoc:
            victim = next(iter(s0))
            if s0.pop(victim):
                self._merge_down(victim)
        s0[block] = dirty
        return 1

    def mark_dirty(self, block: int) -> None:
        """Mark a privately-cached block modified and claim ownership
        of it inside the domain.  Call only after a successful probe."""
        self.set_dirty(block, True)
        domain = self.domain
        if domain is not None:
            l2_set = domain._sets[block & domain._set_mask]
            code = l2_set.get(block)
            if code is not None:
                l2_set[block] = (code & ~OWNER_FIELD) | self._l2_owned

    def fill(self, block: int, dirty: bool) -> None:
        """Install a block into L1 and L0 after a miss was satisfied."""
        domain = self.domain
        s1 = self._l1_sets[block & self._l1_mask]
        if s1.pop(block, None) is None and len(s1) >= self._l1_assoc:
            # an L1 capacity eviction: merge the L0 copy's state into
            # the victim and tell the domain
            victim = next(iter(s1))
            victim_dirty = s1.pop(victim)
            l0_dirty = self._l0_sets[victim & self._l0_mask].pop(victim, False)
            if domain is None:
                raise SimulationError(
                    f"core {self.core_id} evicted from L1 before being "
                    "attached to an L2 domain"
                )
            if victim_dirty or l0_dirty:
                domain.writeback(victim, self.slot)
            domain.note_private_eviction(victim, self.slot)
        s1[block] = dirty
        s0 = self._l0_sets[block & self._l0_mask]
        if s0.pop(block, None) is None and len(s0) >= self._l0_assoc:
            victim = next(iter(s0))
            if s0.pop(victim):
                self._merge_down(victim)
        s0[block] = dirty
        if domain is not None:
            l2_set = domain._sets[block & domain._set_mask]
            code = l2_set.get(block)
            if code is not None:
                if dirty:
                    l2_set[block] = (code & ~OWNER_FIELD) | self._l2_owned
                else:
                    l2_set[block] = code | self._l2_sharer

    def invalidate(self, block: int) -> bool:
        """Drop the block from L0 and L1; True if a dirty copy existed."""
        l0_dirty = self._l0_sets[block & self._l0_mask].pop(block, False)
        l1_dirty = self._l1_sets[block & self._l1_mask].pop(block, False)
        return l0_dirty or l1_dirty

    def set_dirty(self, block: int, dirty: bool) -> None:
        """Set the flag of the resident private copies; they keep their
        LRU positions."""
        s0 = self._l0_sets[block & self._l0_mask]
        if block in s0:
            s0[block] = dirty
        s1 = self._l1_sets[block & self._l1_mask]
        if block in s1:
            s1[block] = dirty

    def holds(self, block: int) -> bool:
        return (block in self._l1_sets[block & self._l1_mask]
                or block in self._l0_sets[block & self._l0_mask])

    def holds_dirty(self, block: int) -> bool:
        return (self._l0_sets[block & self._l0_mask].get(block, False)
                or self._l1_sets[block & self._l1_mask].get(block, False))

    # ------------------------------------------------------------------

    def _merge_down(self, victim: int) -> None:
        """Merge a dirty L0 victim into L1 (inclusive), or into the L2
        when back-invalidation already took the L1 copy."""
        s1 = self._l1_sets[victim & self._l1_mask]
        if victim in s1:
            s1[victim] = True
        elif self.domain is not None:
            self.domain.writeback(victim, self.slot)


class L2Domain:
    """One last-level-cache partition and its member cores.

    Each set is an insertion-ordered ``{block: line code}`` dict that
    the domain drives directly: an LRU hit re-inserts its key and an
    LRU victim is the first key.

    Parameters
    ----------
    domain_id:
        Index of the domain on the chip.
    geometry:
        Array shape (capacity set by the sharing degree).
    core_ids:
        Global ids of the cores sharing this partition.
    policy:
        Replacement policy for the L2 array.
    """

    def __init__(
        self,
        domain_id: int,
        geometry: CacheGeometry,
        core_ids: List[int],
        policy: Optional[ReplacementPolicy] = None,
    ):
        if not core_ids:
            raise ConfigurationError("an L2 domain needs at least one core")
        self.domain_id = domain_id
        self.cache = SetAssocCache(geometry, policy=policy, name=f"l2/domain{domain_id}")
        self.core_ids = list(core_ids)
        self.slot_of = {cid: slot for slot, cid in enumerate(self.core_ids)}
        self.stacks: List[Optional[CoreCacheStack]] = [None] * len(core_ids)
        self.writebacks_to_memory: List[int] = []
        self.quota = None  # optional WayQuota (performance isolation)
        self._sets = self.cache._sets
        self._set_mask = self.cache._set_mask
        self._assoc = geometry.assoc
        self._promotes = self.cache._promotes
        # an LRU victim is the set's first key; other policies choose
        policy = self.cache.policy
        self._policy_victim = None if type(policy) is LruPolicy else policy.victim

    def set_quota(self, quota) -> None:
        """Enable way-quota partitioning for this domain (see
        :mod:`repro.caches.partitioning`)."""
        self.quota = quota

    def attach(self, stack: CoreCacheStack) -> None:
        """Register a member core's private stack with this domain."""
        try:
            slot = self.slot_of[stack.core_id]
        except KeyError:
            raise ConfigurationError(
                f"core {stack.core_id} is not a member of domain {self.domain_id}"
            ) from None
        stack.domain = self
        stack.slot = slot
        stack._l2_sharer = 1 << (SHARER_SHIFT + slot)
        stack._l2_owned = stack._l2_sharer | (slot + 1) << OWNER_SHIFT
        self.stacks[slot] = stack

    # ------------------------------------------------------------------
    # lookups and fills
    # ------------------------------------------------------------------

    def lookup(self, block: int) -> Optional[int]:
        """Access the L2 array (promotes recency); the line's code or
        ``None`` on a miss."""
        cache_set = self._sets[block & self._set_mask]
        if self._promotes:
            code = cache_set.pop(block, None)
            if code is not None:
                cache_set[block] = code
            return code
        return cache_set.get(block)

    def peek(self, block: int) -> Optional[int]:
        """The line's code without affecting recency, or ``None``."""
        return self._sets[block & self._set_mask].get(block)

    def fill(
        self, block: int, dirty: bool, vm_id: int, requester_slot: int
    ) -> List[Tuple[int, bool]]:
        """Install a block brought in from outside the domain.

        Returns the list of ``(victim_block, victim_was_dirty)`` evicted
        to make room.  Victims are back-invalidated from member private
        caches to preserve inclusion; a dirty private copy makes the
        victim dirty regardless of the L2 line's own state.  Filling a
        resident block replaces its line and refreshes its recency.
        """
        code = (vm_id + 1) << VM_SHIFT | 1 << (SHARER_SHIFT + requester_slot)
        if dirty:
            code |= DIRTY | (requester_slot + 1) << OWNER_SHIFT
        cache_set = self._sets[block & self._set_mask]
        if cache_set.pop(block, None) is not None or len(cache_set) < self._assoc:
            cache_set[block] = code
            return []
        victim = None
        if self.quota is not None:
            victim = self.quota.victim_selector(vm_id)(cache_set)
        if victim is None:
            if self._policy_victim is None:
                victim = next(iter(cache_set))
            else:
                victim = self._policy_victim(cache_set)
        victim_code = cache_set.pop(victim)
        cache_set[block] = code
        victim_dirty = self._back_invalidate(victim, victim_code)
        if victim_dirty:
            self.writebacks_to_memory.append(victim)
        return [(victim, victim_dirty)]

    def invalidate(self, block: int) -> bool:
        """Remove the block (directory-initiated); True if dirty anywhere."""
        code = self._sets[block & self._set_mask].pop(block, None)
        if code is None:
            return False
        return self._back_invalidate(block, code)

    # ------------------------------------------------------------------
    # intra-domain bookkeeping (called by member stacks)
    # ------------------------------------------------------------------

    def note_private_eviction(self, block: int, slot: int) -> None:
        """A member L1 dropped the block: clear its sharer bit, and its
        ownership if it held the line modified."""
        cache_set = self._sets[block & self._set_mask]
        code = cache_set.get(block)
        if code is not None:
            code &= ~(1 << (SHARER_SHIFT + slot))
            if code & OWNER_FIELD == (slot + 1) << OWNER_SHIFT:
                code &= ~OWNER_FIELD
            cache_set[block] = code

    def writeback(self, block: int, slot: int) -> None:
        """A member core pushed dirty data down into the L2."""
        cache_set = self._sets[block & self._set_mask]
        code = cache_set.get(block)
        if code is not None:
            code |= DIRTY
            if code & OWNER_FIELD == (slot + 1) << OWNER_SHIFT:
                code &= ~OWNER_FIELD
            cache_set[block] = code
        else:
            # inclusion victim already left the L2; data goes to memory
            self.writebacks_to_memory.append(block)

    def dirty_private_holder(self, block: int, exclude_slot: int) -> Optional[int]:
        """Slot of a member core holding the block modified in its L1.

        Used to detect intra-domain dirty cache-to-cache transfers: the
        requesting core's miss must be satisfied by the owning core's
        private cache rather than the (stale) L2 copy.
        """
        cache_set = self._sets[block & self._set_mask]
        code = cache_set.get(block)
        if code is None:
            return None
        owner = ((code & OWNER_FIELD) >> OWNER_SHIFT) - 1
        if owner == -1 or owner == exclude_slot:
            return None
        stack = self.stacks[owner]
        if stack is not None and stack.holds_dirty(block):
            return owner
        # stale owner hint (the private copy was silently evicted);
        # clear it so later lookups take the fast path
        cache_set[block] = code & ~OWNER_FIELD
        return None

    def downgrade_owner(self, block: int, owner_slot: int) -> None:
        """Pull dirty data from a member L1 into the L2 (owner keeps a
        clean copy); used when another core reads the block."""
        cache_set = self._sets[block & self._set_mask]
        code = cache_set.get(block)
        if code is None:
            return
        stack = self.stacks[owner_slot]
        if stack is not None:
            stack.set_dirty(block, False)
        cache_set[block] = (code | DIRTY) & ~OWNER_FIELD

    # ------------------------------------------------------------------

    def _back_invalidate(self, block: int, code: int) -> bool:
        """Remove private copies of an evicted/invalidated L2 line."""
        dirty = bool(code & DIRTY)
        mask = code >> SHARER_SHIFT
        for slot in range(mask.bit_length()):
            stack = self.stacks[slot] if mask >> slot & 1 else None
            if stack is not None and stack.invalidate(block):
                dirty = True
        return dirty

    def occupancy_by_vm(self) -> dict:
        """Resident line counts per VM id (Figure 13's raw data)."""
        counts: dict = {}
        for _, code in self.cache.contents():
            vm_id = ((code & VM_FIELD) >> VM_SHIFT) - 1
            counts[vm_id] = counts.get(vm_id, 0) + 1
        return counts

    def resident_blocks(self) -> set:
        """Set of block numbers currently resident (Figure 12's raw data)."""
        return {block for block, _ in self.cache.contents()}

    def __repr__(self) -> str:
        return (
            f"L2Domain(id={self.domain_id}, cores={self.core_ids}, "
            f"{self.cache.geometry.describe()})"
        )
