"""Cache-line metadata for the last-level cache.

:class:`L2Line` is a line in a last-level-cache domain.  Besides
dirtiness it tracks which cores *inside the domain* hold the line in
their private caches (an inclusion vector) and which VM the line belongs
to, which feeds the paper's occupancy and replication analyses (Figures
12 and 13).  Private L0/L1 lines carry no object: their only state is a
dirty bit, stored as the value of the set dict (see
:class:`repro.caches.hierarchy.CoreCacheStack`).

The class uses ``__slots__``: the simulator allocates millions of lines
and attribute dictionaries would dominate memory.
"""

from __future__ import annotations

__all__ = ["L2Line"]


class L2Line:
    """A line resident in a last-level-cache domain.

    Attributes
    ----------
    dirty:
        The domain's copy differs from memory (M or O at the directory).
    l1_mask:
        Bitmask over the domain's *local slot indices* (not global core
        ids) of private caches that may hold the line.  Used for
        inclusion back-invalidation and intra-domain dirty transfers.
    l1_owner:
        Local slot index of the core whose L1 holds the line modified,
        or -1.  A dirty private copy forces an intra-domain
        cache-to-cache transfer when another core in the domain misses.
    vm_id:
        Virtual machine that brought the line in; VMs never share data
        (the hypervisor gives each a private physical partition) so one
        id suffices.
    """

    __slots__ = ("dirty", "l1_mask", "l1_owner", "vm_id")

    def __init__(self, dirty: bool = False, vm_id: int = -1):
        self.dirty = dirty
        self.l1_mask = 0
        self.l1_owner = -1
        self.vm_id = vm_id

    def drop_sharer(self, slot: int) -> None:
        self.l1_mask &= ~(1 << slot)
        if self.l1_owner == slot:
            self.l1_owner = -1

    def has_sharer(self, slot: int) -> bool:
        return bool(self.l1_mask & (1 << slot))

    def sharers(self) -> list:
        """Local slot indices with (possibly stale) private copies."""
        mask = self.l1_mask
        out = []
        slot = 0
        while mask:
            if mask & 1:
                out.append(slot)
            mask >>= 1
            slot += 1
        return out

    def __repr__(self) -> str:
        return (
            f"L2Line(dirty={self.dirty}, l1_mask={self.l1_mask:#x}, "
            f"l1_owner={self.l1_owner}, vm_id={self.vm_id})"
        )
