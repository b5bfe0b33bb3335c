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

Cross-domain coherence (cache-to-cache transfers, invalidation of
remote domains) is the directory protocol's job —
:mod:`repro.coherence` — these classes only manage state *within* one
domain.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import ConfigurationError, SimulationError
from .geometry import CacheGeometry
from .line import L2Line, PrivateLine
from .replacement import ReplacementPolicy
from .setassoc import SetAssocCache

__all__ = ["CoreCacheStack", "L2Domain"]


class CoreCacheStack:
    """Private L0 + L1 of one core.

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

    # ------------------------------------------------------------------

    def probe(self, block: int) -> Optional[int]:
        """Look the block up in L0 then L1 (pure lookup).

        Returns 0 on an L0 hit, 1 on an L1 hit (the line is promoted
        into L0), or ``None`` on a private miss.  Writes call
        :meth:`mark_dirty` separately, *after* the machine model has
        obtained write permission from the directory.
        """
        if self.l0.lookup(block) is not None:
            return 0
        line = self.l1.lookup(block)
        if line is None:
            return None
        self._fill_l0(block, line.dirty)
        return 1

    def mark_dirty(self, block: int) -> None:
        """Mark a privately-cached block modified and claim ownership
        of it inside the domain.  Call only after a successful probe."""
        line = self.l0.peek(block)
        if line is not None:
            line.dirty = True
        line = self.l1.peek(block)
        if line is not None:
            line.dirty = True
        if self.domain is not None:
            self.domain.note_private_write(block, self.slot)

    def fill(self, block: int, dirty: bool) -> None:
        """Install a block into L1 and L0 after a miss was satisfied."""
        domain = self.domain
        evicted = self.l1.insert(block, PrivateLine(dirty))
        if evicted is not None:
            # an L1 capacity eviction: merge the L0 copy's state into
            # the victim and tell the domain
            victim, victim_line = evicted
            l0_line = self.l0.invalidate(victim)
            if domain is None:
                raise SimulationError(
                    f"core {self.core_id} evicted from L1 before being "
                    "attached to an L2 domain"
                )
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

    def invalidate(self, block: int) -> bool:
        """Drop the block from L0 and L1; True if a dirty copy existed."""
        dirty = False
        line = self.l0.invalidate(block)
        if line is not None and line.dirty:
            dirty = True
        line = self.l1.invalidate(block)
        if line is not None and line.dirty:
            dirty = True
        return dirty

    def holds(self, block: int) -> bool:
        return block in self.l1 or block in self.l0

    def holds_dirty(self, block: int) -> bool:
        l0 = self.l0.peek(block)
        if l0 is not None and l0.dirty:
            return True
        l1 = self.l1.peek(block)
        return l1 is not None and l1.dirty

    # ------------------------------------------------------------------

    def _fill_l0(self, block: int, dirty: bool) -> None:
        evicted = self.l0.insert(block, PrivateLine(dirty))
        if evicted is None:
            return
        victim, victim_line = evicted
        if victim_line.dirty:
            # merge dirtiness down into L1 (inclusive)
            l1_line = self.l1.peek(victim)
            if l1_line is not None:
                l1_line.dirty = True
            elif self.domain is not None:
                # L1 lost the line already (race with back-invalidation
                # ordering); push dirtiness to the domain directly.
                self.domain.writeback(victim, self.slot)


class L2Domain:
    """One last-level-cache partition and its member cores.

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
        self.dirty_writebacks = 0
        self.quota = None  # optional WayQuota (performance isolation)

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
        self.stacks[slot] = stack

    # ------------------------------------------------------------------
    # lookups and fills
    # ------------------------------------------------------------------

    def lookup(self, block: int) -> Optional[L2Line]:
        """Access the L2 array (counts in stats, promotes recency)."""
        return self.cache.lookup(block)

    def peek(self, block: int) -> Optional[L2Line]:
        return self.cache.peek(block)

    def fill(
        self, block: int, dirty: bool, vm_id: int, requester_slot: int
    ) -> List[Tuple[int, bool]]:
        """Install a block brought in from outside the domain.

        Returns the list of ``(victim_block, victim_was_dirty)`` evicted
        to make room.  Victims are back-invalidated from member private
        caches to preserve inclusion; a dirty private copy makes the
        victim dirty regardless of the L2 line's own state.
        """
        line = L2Line(dirty, vm_id)
        line.l1_mask = 1 << requester_slot
        if dirty:
            line.l1_owner = requester_slot
        selector = (
            self.quota.victim_selector(vm_id) if self.quota is not None else None
        )
        evicted = self.cache.insert(block, line, selector)
        if evicted is None:
            return []
        victim, victim_line = evicted
        victim_dirty = self._back_invalidate(victim, victim_line)
        if victim_dirty:
            self.dirty_writebacks += 1
            self.writebacks_to_memory.append(victim)
        return [(victim, victim_dirty)]

    def invalidate(self, block: int) -> bool:
        """Remove the block (directory-initiated); True if dirty anywhere."""
        line = self.cache.invalidate(block)
        if line is None:
            return False
        return self._back_invalidate(block, line)

    # ------------------------------------------------------------------
    # intra-domain bookkeeping (called by member stacks)
    # ------------------------------------------------------------------

    def note_private_eviction(self, block: int, slot: int) -> None:
        line = self.cache.peek(block)
        if line is not None:
            line.drop_sharer(slot)

    def note_private_write(self, block: int, slot: int) -> None:
        """A member core wrote the block in its private cache."""
        line = self.cache.peek(block)
        if line is not None:
            line.l1_owner = slot
            line.add_sharer(slot)

    def writeback(self, block: int, slot: int) -> None:
        """A member core pushed dirty data down into the L2."""
        line = self.cache.peek(block)
        if line is not None:
            line.dirty = True
            if line.l1_owner == slot:
                line.l1_owner = -1
        else:
            # inclusion victim already left the L2; data goes to memory
            self.dirty_writebacks += 1
            self.writebacks_to_memory.append(block)

    def dirty_private_holder(self, block: int, exclude_slot: int) -> Optional[int]:
        """Slot of a member core holding the block modified in its L1.

        Used to detect intra-domain dirty cache-to-cache transfers: the
        requesting core's miss must be satisfied by the owning core's
        private cache rather than the (stale) L2 copy.
        """
        line = self.cache.peek(block)
        if line is None:
            return None
        owner = line.l1_owner
        if owner == -1 or owner == exclude_slot:
            return None
        stack = self.stacks[owner]
        if stack is not None and stack.holds_dirty(block):
            return owner
        # stale owner hint (the private copy was silently evicted);
        # clear it so later lookups take the fast path
        line.l1_owner = -1
        return None

    def downgrade_owner(self, block: int, owner_slot: int) -> None:
        """Pull dirty data from a member L1 into the L2 (owner keeps a
        clean copy); used when another core reads the block."""
        line = self.cache.peek(block)
        if line is None:
            return
        stack = self.stacks[owner_slot]
        if stack is not None:
            l0_line = stack.l0.peek(block)
            if l0_line is not None:
                l0_line.dirty = False
            l1_line = stack.l1.peek(block)
            if l1_line is not None:
                l1_line.dirty = False
        line.dirty = True
        line.l1_owner = -1

    # ------------------------------------------------------------------

    def _back_invalidate(self, block: int, line: L2Line) -> bool:
        """Remove private copies of an evicted/invalidated L2 line."""
        dirty = line.dirty
        for slot in line.sharers():
            stack = self.stacks[slot]
            if stack is not None and stack.invalidate(block):
                dirty = True
        return dirty

    def occupancy_by_vm(self) -> dict:
        """Resident line counts per VM id (Figure 13's raw data)."""
        counts: dict = {}
        for _, line in self.cache.contents():
            counts[line.vm_id] = counts.get(line.vm_id, 0) + 1
        return counts

    def resident_blocks(self) -> set:
        """Set of block numbers currently resident (Figure 12's raw data)."""
        return {block for block, _ in self.cache.contents()}

    def __repr__(self) -> str:
        return (
            f"L2Domain(id={self.domain_id}, cores={self.core_ids}, "
            f"{self.cache.geometry.describe()})"
        )
