"""QoS sensors: the UMON-style utility monitor.

:class:`UtilityMonitor` is a shadow-tag sampler (Qureshi & Patt, MICRO
2006) attached to one shared L2 domain.  It maintains, for a sampled
subset of sets, a per-VM LRU stack of recently-accessed tags and a
histogram of stack-distance hits.  The cumulative histogram is the
VM's *utility curve*: how many of its L2 accesses would have hit had it
owned 1, 2, ... ``assoc`` ways exclusively — exactly the
marginal-utility signal UCP repartitioning needs.  The monitor observes
the access stream through the chip's read-only
:meth:`~repro.machine.chip.Chip.set_l2_tap` hook, so it can never
perturb simulation state.

The per-VM epoch deltas every controller reads come from the
observability layer's :class:`~repro.obs.probes.Sensor`, the same
:class:`~repro.obs.probes.SensingWindow` the scheduling policies and
the epoch probe read.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["UtilityMonitor"]


class UtilityMonitor:
    """Shadow-tag utility monitor for one shared L2 domain.

    Parameters
    ----------
    domain_id:
        The L2 domain this monitor shadows.
    assoc:
        Domain set associativity — the shadow stacks track at most this
        many tags per (VM, set), giving utility curves over 1..assoc
        ways.
    num_sets:
        Number of sets in the domain array (used to derive set indices
        from block numbers the same way the real array does).
    sample_every:
        Set-sampling factor: only sets whose index is a multiple of
        this are shadowed (UMON's dynamic set sampling).  1 shadows
        every set.
    """

    def __init__(self, domain_id: int, assoc: int, num_sets: int,
                 sample_every: int = 8):
        if assoc <= 0:
            raise ValueError("assoc must be positive")
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a positive power of two")
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.domain_id = domain_id
        self.assoc = assoc
        self.set_mask = num_sets - 1
        self.sample_every = sample_every
        # (vm_id, set_index) -> MRU-first list of shadow tags
        self._stacks: Dict[tuple, List[int]] = {}
        # vm_id -> hits at stack distance d (0-based); index d means the
        # access would hit with d+1 allocated ways
        self.hits: Dict[int, List[int]] = {}
        self.misses: Dict[int, int] = {}

    def observe(self, vm_id: int, block: int) -> None:
        """Feed one L2 access into the shadow tags (tap callback)."""
        if vm_id < 0:
            return
        set_index = block & self.set_mask
        if set_index % self.sample_every:
            return
        stack = self._stacks.get((vm_id, set_index))
        if stack is None:
            stack = self._stacks[(vm_id, set_index)] = []
        try:
            distance = stack.index(block)
        except ValueError:
            self.misses[vm_id] = self.misses.get(vm_id, 0) + 1
        else:
            del stack[distance]
            hits = self.hits.get(vm_id)
            if hits is None:
                hits = self.hits[vm_id] = [0] * self.assoc
            hits[distance] += 1
        stack.insert(0, block)
        del stack[self.assoc:]

    def utility_curve(self, vm_id: int) -> List[int]:
        """Cumulative shadow hits with 1..assoc exclusive ways.

        ``curve[w-1]`` estimates how many of the VM's sampled accesses
        would have hit with ``w`` dedicated ways.  Monotone
        non-decreasing by construction.
        """
        hits = self.hits.get(vm_id, [0] * self.assoc)
        curve: List[int] = []
        total = 0
        for count in hits:
            total += count
            curve.append(total)
        return curve

    def accesses(self, vm_id: int) -> int:
        """Sampled accesses observed for the VM."""
        hits = self.hits.get(vm_id)
        return (sum(hits) if hits else 0) + self.misses.get(vm_id, 0)

    def reset(self) -> None:
        """Zero the histograms, keeping the shadow tags warm (UMON's
        end-of-epoch behaviour: halving would also work; clearing makes
        each epoch's curve independent)."""
        for hits in self.hits.values():
            for index in range(len(hits)):
                hits[index] = 0
        for vm in self.misses:
            self.misses[vm] = 0
