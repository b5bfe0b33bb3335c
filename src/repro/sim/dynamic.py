"""Dynamic thread-to-core rebinding (Section VII).

The paper binds threads statically and names "schedulers dynamically
adjusting assignments, in response to context-switches and changing
demands" as future work.  :class:`MigratingEngine` implements it: at a
fixed cycle interval a pluggable *rebinder* may migrate threads to
different cores.  Caches do not move — a migrated thread restarts with
cold private caches and far-away L2 state, so the cost of migration
emerges from the memory system rather than being a modelled constant
(a small explicit pipeline-refill penalty is charged too).

Two rebinders are provided:

* :class:`RandomRebinder` — periodically re-deals threads to cores at
  random: the long-run behaviour the paper's *random* static policy
  approximates, now generated by actual churn;
* :class:`AffinityRebinder` — greedily migrates threads back toward
  their VM's dominant L2 domain: a minimal "affinity healer" showing
  dynamic policies can recover static affinity's benefit.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from ..control import ASYM_L2, LOAD_SCALE, MIGRATE, QUOTA, RETARGET
from ..errors import SimulationError
from .engine import EngineResult, ThreadContext

__all__ = ["Rebinder", "RandomRebinder", "AffinityRebinder", "MigratingEngine"]


class Rebinder(Protocol):
    """Decides migrations at each rebalance point."""

    def rebind(
        self, now: int, threads: List[ThreadContext]
    ) -> Dict[int, int]:
        """Return ``{thread_id: new core}`` for threads to migrate.

        The result must keep the one-thread-per-core invariant; the
        engine validates and rejects violations.
        """
        ...


class RandomRebinder:
    """Randomly re-deal every thread to a core each interval."""

    def __init__(self, num_cores: int, rng: np.random.Generator):
        self.num_cores = num_cores
        self.rng = rng

    def rebind(self, now: int, threads: List[ThreadContext]) -> Dict[int, int]:
        cores = list(self.rng.permutation(self.num_cores))
        return {
            thread.thread_id: int(cores[i])
            for i, thread in enumerate(threads)
        }


class AffinityRebinder:
    """Pull each VM's threads toward the domain where most of them run.

    Parameters
    ----------
    domain_of_core:
        ``core -> domain`` map (from the chip's placement).
    cores_of_domain:
        ``domain -> [cores]`` map.
    """

    def __init__(self, domain_of_core: List[int], cores_of_domain: List[List[int]]):
        self.domain_of_core = domain_of_core
        self.cores_of_domain = cores_of_domain

    def rebind(self, now: int, threads: List[ThreadContext]) -> Dict[int, int]:
        # target: assign each VM the domain where it currently has the
        # most threads (ties to the lower domain id), then pack
        by_vm: Dict[int, List[ThreadContext]] = {}
        for thread in threads:
            by_vm.setdefault(thread.vm_id, []).append(thread)
        free = {d: list(cores) for d, cores in enumerate(self.cores_of_domain)}
        # process VMs by descending presence concentration for stability
        moves: Dict[int, int] = {}
        order = sorted(by_vm, key=lambda vm: -len(by_vm[vm]))
        for vm in order:
            members = by_vm[vm]
            counts: Dict[int, int] = {}
            for thread in members:
                domain = self.domain_of_core[thread.core_id]
                counts[domain] = counts.get(domain, 0) + 1
            preferred = sorted(counts, key=lambda d: (-counts[d], d))
            preferred += [d for d in free if d not in counts]
            remaining = list(members)
            for domain in preferred:
                while remaining and free.get(domain):
                    thread = remaining.pop(0)
                    core = free[domain].pop(0)
                    if core != thread.core_id:
                        moves[thread.thread_id] = core
                if not remaining:
                    break
        return moves


class MigratingEngine:
    """The base engine plus periodic thread migration.

    Parameters
    ----------
    machine:
        Timing model; if it exposes ``bind_core_to_vm`` the VM
        attribution is kept current across migrations.
    threads:
        One thread per core at most, as in the base engine.
    rebinder:
        Migration policy.
    interval:
        Cycles between rebalance points.
    migration_penalty:
        Cycles added to a migrated thread's next issue (pipeline and
        register-state transfer; the cache cold-start is emergent).
    control:
        Optional :class:`~repro.qos.hook.QosHook` called once per step
        with the current issue time (see the base engine).
    """

    #: capabilities (:mod:`repro.control`): core speeds, stop times
    #: and epoch probes are never read
    provides = frozenset({QUOTA, MIGRATE, RETARGET, LOAD_SCALE, ASYM_L2})

    def __init__(
        self,
        machine,
        threads: List[ThreadContext],
        rebinder: Rebinder,
        interval: int = 100_000,
        migration_penalty: int = 1_000,
        max_steps: Optional[int] = None,
        control=None,
    ):
        if not threads:
            raise SimulationError("engine needs at least one thread")
        if interval <= 0:
            raise SimulationError("interval must be positive")
        if migration_penalty < 0:
            raise SimulationError("migration_penalty must be non-negative")
        cores_seen = set()
        for thread in threads:
            if thread.core_id in cores_seen:
                raise SimulationError(
                    f"core {thread.core_id} bound to more than one thread"
                )
            cores_seen.add(thread.core_id)
        self.machine = machine
        self.threads = {t.thread_id: t for t in threads}
        self.rebinder = rebinder
        self.control = control
        self.interval = interval
        self.migration_penalty = migration_penalty
        demand = sum(t.warmup_refs + t.measured_refs for t in threads)
        self.max_steps = max_steps if max_steps is not None else 32 * demand
        self.migrations = 0

    def run(self) -> EngineResult:
        threads = self.threads
        bind = getattr(self.machine, "bind_core_to_vm", None)
        pending: Dict[int, tuple] = {}
        heap: List[Tuple[int, int]] = []
        delays: Dict[int, int] = {tid: 0 for tid in threads}
        for tid in sorted(threads):
            ref = next(threads[tid].references, None)
            if ref is None:
                raise SimulationError(f"thread {tid} stream ended at start")
            pending[tid] = ref
            heap.append((threads[tid].start_time + ref[2], tid))
        heapq.heapify(heap)

        vm_pending: Dict[int, int] = {}
        for thread in threads.values():
            vm_pending[thread.vm_id] = vm_pending.get(thread.vm_id, 0) + 1
        vm_completion: Dict[int, int] = {}
        pending_vms = len(vm_pending)

        next_rebalance = self.interval
        control = self.control
        # epoch-gated like the base engine: int compare per step
        control_due = control.next_due if control is not None else None
        steps = 0
        issue_time = 0
        while pending_vms > 0:
            steps += 1
            if steps > self.max_steps:
                raise SimulationError(
                    f"migrating engine exceeded {self.max_steps} steps"
                )
            issue_time, tid = heapq.heappop(heap)
            if control_due is not None and issue_time >= control_due:
                control.on_step(issue_time)
                control_due = control.next_due
            if issue_time >= next_rebalance:
                heapq.heappush(heap, (issue_time, tid))
                self._rebalance(next_rebalance, delays, bind)
                next_rebalance += self.interval
                continue
            extra = delays.pop(tid, 0)
            if extra:
                heapq.heappush(heap, (issue_time + extra, tid))
                delays[tid] = 0
                continue
            thread = threads[tid]
            block, access, think = pending[tid]
            result = self.machine.access(
                thread.core_id, block, bool(access), issue_time
            )
            finish = issue_time + result.latency + 1

            index = thread.issued
            thread.issued += 1
            window_start = thread.warmup_refs
            window_end = window_start + thread.measured_refs
            if window_start <= index < window_end:
                thread.stats.record(access, think, result)
                if thread.issued == window_end:
                    thread.completion_time = finish
                    vm = thread.vm_id
                    vm_pending[vm] -= 1
                    if vm_pending[vm] == 0:
                        vm_completion[vm] = finish
                        pending_vms -= 1
            next_ref = next(thread.references, None)
            if next_ref is None:
                raise SimulationError(f"thread {tid} stream ended mid-run")
            pending[tid] = next_ref
            heapq.heappush(heap, (finish + next_ref[2], tid))

        final_time = max(vm_completion.values())
        if control is not None:
            control.finish(final_time)
        result = EngineResult(
            # the run ends when the last VM completes (max completion
            # time), not at the last popped issue time
            final_time=final_time,
            vm_completion_times=vm_completion,
            thread_stats={tid: t.stats for tid, t in threads.items()},
            total_refs_processed=steps,
        )
        result._vm_of = {tid: t.vm_id for tid, t in threads.items()}
        return result

    # ------------------------------------------------------------------

    def _rebalance(self, now: int, delays: Dict[int, int], bind) -> None:
        moves = self.rebinder.rebind(now, list(self.threads.values()))
        if not moves:
            return
        # validate the post-move binding keeps one thread per core
        new_core = {
            tid: moves.get(tid, thread.core_id)
            for tid, thread in self.threads.items()
        }
        if len(set(new_core.values())) != len(new_core):
            raise SimulationError(
                "rebinder produced a conflicting core assignment"
            )
        for tid, core in moves.items():
            thread = self.threads[tid]
            if core == thread.core_id:
                continue
            thread.core_id = core
            delays[tid] = delays.get(tid, 0) + self.migration_penalty
            self.migrations += 1
            if bind is not None:
                bind(core, thread.vm_id)
