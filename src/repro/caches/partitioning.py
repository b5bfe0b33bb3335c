"""Way-quota cache partitioning (performance isolation).

The paper closes by arguing that consolidation's *functional* isolation
should "feasibly extend ... into performance isolation": one VM's cache
appetite measurably slows its neighbours (Figures 8-13).  This module
implements the classic remedy the paper's related-work section points
at (fair cache sharing/partitioning, Kim et al., PACT 2004): per-VM
**way quotas** in each shared L2 set.

Mechanism — at insertion into a full set:

1. if the inserting VM is at/above its quota in this set, it victimizes
   its own LRU line (it cannot grow at a neighbour's expense);
2. otherwise, if some other VM is over *its* quota, that VM's LRU line
   is the victim (quotas are reclaimed lazily);
3. otherwise vanilla LRU decides.

Quotas bound only *growth*; unused ways remain usable by everyone,
preserving most of the utilization benefit of sharing.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import ConfigurationError
from .hierarchy import VM_FIELD, VM_SHIFT

__all__ = ["WayQuota", "equal_quotas"]


class WayQuota:
    """Per-VM way quotas for one L2 domain.

    Parameters
    ----------
    quotas:
        ``vm_id -> ways`` the VM may occupy per set.  VMs not listed
        are unconstrained (useful for the hypervisor's own traffic).
    assoc:
        The domain's set associativity (for validation).
    """

    def __init__(self, quotas: Dict[int, int], assoc: int):
        if not quotas:
            raise ConfigurationError("way quotas need at least one VM")
        for vm, ways in quotas.items():
            self._validate(vm, ways, assoc)
        self.quotas = dict(quotas)
        self.assoc = assoc
        self.self_evictions = 0
        self.reclaims = 0
        self.adjustments = 0

    @staticmethod
    def _validate(vm: int, ways: int, assoc: int) -> None:
        if ways <= 0:
            raise ConfigurationError(
                f"VM {vm} quota must be positive, got {ways}"
            )
        if ways > assoc:
            raise ConfigurationError(
                f"VM {vm} quota {ways} exceeds associativity {assoc}"
            )

    def set_quota(self, vm_id: int, ways: int) -> None:
        """Rewrite one VM's quota live (QoS controller actuation).

        Only VMs present at construction may be adjusted: quotas define
        *which* VMs the partition governs, controllers only move ways
        between them.  The same associativity bounds as construction
        apply.  No-op rewrites (same value) are not counted as
        adjustments, so a static controller leaves the counters — and
        the victim-selection behaviour — untouched.
        """
        if vm_id not in self.quotas:
            raise ConfigurationError(
                f"VM {vm_id} has no way quota in this domain; known VMs: "
                f"{sorted(self.quotas)} (quotas can be adjusted, not added)"
            )
        self._validate(vm_id, ways, self.assoc)
        if self.quotas[vm_id] != ways:
            self.quotas[vm_id] = ways
            self.adjustments += 1

    def update(self, quotas: Dict[int, int]) -> int:
        """Apply many :meth:`set_quota` rewrites; returns how many
        actually changed a value."""
        before = self.adjustments
        for vm_id, ways in sorted(quotas.items()):
            self.set_quota(vm_id, ways)
        return self.adjustments - before

    def victim_selector(self, vm_id: int):
        """A per-insertion victim selector for :meth:`L2Domain.fill
        <repro.caches.hierarchy.L2Domain.fill>`: ``select(cache_set)``
        reads the VM field of the set's packed line codes and returns
        the victim block, or ``None`` to defer to the replacement
        policy."""
        quotas = self.quotas
        my_quota = quotas.get(vm_id)
        mine = vm_id + 1  # VM fields hold the id + 1

        def select(cache_set) -> Optional[int]:
            counts: Dict[int, int] = {}
            for code in cache_set.values():
                owner = (code & VM_FIELD) >> VM_SHIFT
                counts[owner] = counts.get(owner, 0) + 1
            if my_quota is not None and counts.get(mine, 0) >= my_quota:
                # rule 1: evict own LRU line
                for block, code in cache_set.items():
                    if (code & VM_FIELD) >> VM_SHIFT == mine:
                        self.self_evictions += 1
                        return block
            # rule 2: reclaim from an over-quota neighbour
            for block, code in cache_set.items():
                owner = (code & VM_FIELD) >> VM_SHIFT
                quota = quotas.get(owner - 1)
                if quota is not None and owner != mine and counts[owner] > quota:
                    self.reclaims += 1
                    return block
            return None  # rule 3: fall back to vanilla LRU

        return select


def equal_quotas(vm_ids, assoc: int) -> Dict[int, int]:
    """An equal split of ``assoc`` ways among ``vm_ids`` (at least one
    way each) — the fair-share configuration used by the fairness
    ablation."""
    vm_ids = list(vm_ids)
    if not vm_ids:
        raise ConfigurationError("equal_quotas needs at least one VM")
    share = max(1, assoc // len(vm_ids))
    return {vm: share for vm in vm_ids}
