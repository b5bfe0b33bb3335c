"""Global-time event loop driving the trace simulation.

The engine owns a priority queue of (ready-time, core) pairs.  Each step
pops the core with the smallest local time, pulls the next memory
reference from the thread bound to that core, sends it through the
machine model, and re-inserts the core at its completion time.  Cores
are processed in non-decreasing global time, so references *issue* in
time order; the messages a reference sends later in its life do not
reach the FIFO resource servers of :mod:`repro.sim.server` in time
order, and the servers clamp such regressed arrivals, so contention is
modelled approximately (see :class:`~repro.sim.server.FifoServer`).

Measurement methodology mirrors Section IV of the paper:

* each thread issues a fixed number of *measured* references (its
  "transactions"), preceded by a warm-up phase excluded from statistics;
* a virtual machine *completes* when all of its threads have issued
  their measured references; the per-VM cycle count is that completion
  time (the paper's normalized runtime metric);
* threads of completed VMs keep running (the workload is "restarted")
  so the machine stays filled to capacity until every VM completes,
  keeping the system in steady state.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Protocol, Tuple

from ..control import (ASYM_L2, CORE_SPEEDS, EPOCH_PROBE, LOAD_SCALE, MIGRATE,
                       QUOTA, RETARGET, RETIRE)
from ..errors import SimulationError
from .records import AccessResult, HitLevel, LatencyBreakdown, MemoryReference

__all__ = ["MachineModel", "ThreadContext", "ThreadStats", "Engine", "EngineResult"]

# read on every recorded reference: bound once, not looked up on the enum
_L2 = HitLevel.L2


class MachineModel(Protocol):
    """Timing interface the engine drives.

    Implemented by :class:`repro.machine.chip.Chip`; the engine itself
    only needs this one method, which keeps the engine unit-testable
    against trivial fake machines.
    """

    def access(self, core_id: int, block: int, is_write: bool, now: int) -> AccessResult:
        """Perform one reference and return its timing outcome."""
        ...


@dataclass
class ThreadStats:
    """Counters accumulated over a thread's *measured* references."""

    refs: int = 0
    reads: int = 0
    writes: int = 0
    think_cycles: int = 0
    latency_cycles: int = 0
    miss_latency_cycles: int = 0
    cache_cycles: int = 0
    network_cycles: int = 0
    directory_cycles: int = 0
    memory_cycles: int = 0
    level_counts: Dict[HitLevel, int] = field(
        default_factory=lambda: {level: 0 for level in HitLevel}
    )

    @property
    def cycles(self) -> int:
        """Busy cycles: one per instruction plus memory stall cycles."""
        return self.refs + self.think_cycles + self.latency_cycles

    @property
    def l1_misses(self) -> int:
        return sum(
            count for level, count in self.level_counts.items() if level.is_l1_miss
        )

    @property
    def l2_misses(self) -> int:
        """Misses seen by the VM: references not satisfied on the local L2."""
        return sum(
            count for level, count in self.level_counts.items() if level.is_l2_miss
        )

    @property
    def c2c_transfers(self) -> int:
        return (
            self.level_counts[HitLevel.C2C_CLEAN]
            + self.level_counts[HitLevel.C2C_DIRTY]
        )

    @property
    def mean_miss_latency(self) -> float:
        """Average latency of L1 misses, the paper's miss-latency metric."""
        misses = self.l1_misses
        return self.miss_latency_cycles / misses if misses else 0.0

    @property
    def breakdown(self) -> LatencyBreakdown:
        return LatencyBreakdown(
            cache=self.cache_cycles,
            network=self.network_cycles,
            directory=self.directory_cycles,
            memory=self.memory_cycles,
        )

    def record(self, access: int, think: int, result: AccessResult) -> None:
        level, latency, cache, network, directory, memory = result
        self.refs += 1
        if access:
            self.writes += 1
        else:
            self.reads += 1
        self.think_cycles += think
        self.latency_cycles += latency
        self.level_counts[level] += 1
        if level >= _L2:  # inline of level.is_l1_miss
            self.miss_latency_cycles += latency
        self.cache_cycles += cache
        self.network_cycles += network
        self.directory_cycles += directory
        self.memory_cycles += memory


class ThreadContext:
    """One workload thread bound to one physical core.

    Parameters
    ----------
    thread_id:
        Globally unique thread index.
    vm_id:
        Virtual machine the thread belongs to.
    core_id:
        Physical core the hypervisor bound this thread to (static
        binding, per the paper's methodology).
    references:
        Iterator of :class:`MemoryReference`.  Must be effectively
        infinite (workload generators restart transparently); the engine
        decides when to stop consuming.
    measured_refs:
        Number of references that constitute the thread's measured run.
    warmup_refs:
        References consumed before measurement starts.
    start_time:
        Cycle at which the thread issues its first reference.  The
        paper flags workload start times as a methodological variable
        worth exploring (Section VIII); staggered starts let the
        start-time ablation do exactly that.
    stop_time:
        Cycle at which the thread *departs* (VM churn): at its first
        issue at or past this cycle the thread retires instead of
        issuing, freeing its core for the rest of the run.  ``None``
        (the default) keeps the paper's semantics — threads run until
        every VM completes.
    """

    def __init__(
        self,
        thread_id: int,
        vm_id: int,
        core_id: int,
        references: Iterator[MemoryReference],
        measured_refs: int,
        warmup_refs: int = 0,
        start_time: int = 0,
        stop_time: Optional[int] = None,
    ):
        if measured_refs <= 0:
            raise ValueError("measured_refs must be positive")
        if warmup_refs < 0:
            raise ValueError("warmup_refs must be non-negative")
        if start_time < 0:
            raise ValueError("start_time must be non-negative")
        if stop_time is not None and stop_time <= start_time:
            raise ValueError("stop_time must be after start_time")
        self.thread_id = thread_id
        self.vm_id = vm_id
        self.core_id = core_id
        self.references = references
        self.measured_refs = measured_refs
        self.warmup_refs = warmup_refs
        self.start_time = start_time
        self.stop_time = stop_time
        self.issued = 0
        self.stats = ThreadStats()
        self.completion_time: Optional[int] = None


@dataclass
class EngineResult:
    """Outcome of one engine run."""

    final_time: int
    vm_completion_times: Dict[int, int]
    thread_stats: Dict[int, ThreadStats]
    total_refs_processed: int
    #: populated by the over-commit engine; always 0 for the base engine
    context_switches: int = 0

    def vm_threads(self, vm_id: int) -> List[ThreadStats]:
        """Stats of every thread belonging to ``vm_id``."""
        return [
            stats
            for tid, stats in sorted(self.thread_stats.items())
            if self._vm_of[tid] == vm_id
        ]

    # filled by the engine after construction
    _vm_of: Dict[int, int] = field(default_factory=dict)


class Engine:
    """Drives threads through a machine model until every VM completes.

    Parameters
    ----------
    machine:
        Timing model implementing :class:`MachineModel`.
    threads:
        All thread contexts; at most one per physical core (the paper
        never over-commits the machine).
    max_steps:
        Safety valve against runaway simulations; exceeded only on a
        simulator bug, in which case :class:`SimulationError` is raised.
    probe:
        Optional :class:`~repro.obs.probes.EpochProbe` sampling per-VM
        time series as simulated time advances.  Probes are strictly
        read-only: a run with a probe is bit-identical to one without
        (the probe costs one ``is not None`` test per step when absent).
    control:
        Optional :class:`~repro.qos.hook.QosHook` driven with the same
        per-step cadence as ``probe``.  Unlike probes, a control hook
        *may* change machine state (it rewrites live way quotas at
        control-epoch boundaries) — that is its purpose.
    """

    #: capabilities (:mod:`repro.control`): all but over-commit queues
    provides = frozenset({QUOTA, MIGRATE, RETIRE, RETARGET, LOAD_SCALE,
                          CORE_SPEEDS, ASYM_L2, EPOCH_PROBE})

    def __init__(
        self,
        machine: MachineModel,
        threads: List[ThreadContext],
        max_steps: Optional[int] = None,
        probe=None,
        control=None,
    ):
        cores_seen = set()
        for thread in threads:
            if thread.core_id in cores_seen:
                raise SimulationError(
                    f"core {thread.core_id} bound to more than one thread; "
                    "the consolidation methodology never over-commits cores"
                )
            cores_seen.add(thread.core_id)
        if not threads:
            raise SimulationError("engine needs at least one thread")
        self.machine = machine
        self.threads = {t.thread_id: t for t in threads}
        self.probe = probe
        self.control = control
        demand = sum(t.warmup_refs + t.measured_refs for t in threads)
        # Completed VMs keep running while others finish; 32x the
        # measured demand is far beyond any legitimate imbalance.
        self.max_steps = max_steps if max_steps is not None else 32 * demand
        # heterogeneous cores: per-core think-cycle multipliers, or
        # None on a homogeneous machine (exact legacy arithmetic)
        self._inv_speeds = getattr(machine, "inverse_core_speeds", None)
        # one-shot issue delays charged by scheduler migrations
        self._delays: Dict[int, int] = {}
        self._has_stops = any(t.stop_time is not None for t in threads)
        # threads that departed via stop_time (VM churn)
        self._retired: set = set()

    # ------------------------------------------------------------------
    # scheduler actuation (see repro.sched.hook.SchedHook)
    # ------------------------------------------------------------------

    def run_queues(self) -> Dict[int, List[int]]:
        """Per-core thread binding as singleton run queues.

        Mirrors :meth:`repro.sim.overcommit.OvercommitEngine.run_queues`
        so epoch hooks can treat both engines uniformly; on this engine
        every queue holds exactly the one running thread.  Cores freed
        by departed (churned) threads are omitted — they are idle.
        """
        return {
            t.core_id: [tid]
            for tid, t in sorted(self.threads.items())
            if tid not in self._retired
        }

    def apply_migrations(
        self, moves: Dict[int, int], now: int, penalty: int = 0
    ) -> int:
        """Atomically rebind threads to new cores at a control epoch.

        ``moves`` maps thread id to destination core.  The post-move
        binding must still place at most one thread per core (swaps
        are expressed by moving both parties), otherwise
        :class:`SimulationError` — schedulers are expected to propose
        valid permutations.  Each moved thread is charged ``penalty``
        cycles before its next issue, modelling the cold-cache /
        context-transfer cost of the migration.  Returns the number of
        threads actually moved (no-op moves are skipped).
        """
        real = {
            tid: core
            for tid, core in moves.items()
            if tid in self.threads
            and tid not in self._retired
            and self.threads[tid].core_id != core
        }
        if not real:
            return 0
        new_core = {
            t.thread_id: t.core_id
            for t in self.threads.values()
            if t.thread_id not in self._retired
        }
        new_core.update(real)
        if len(set(new_core.values())) != len(new_core):
            raise SimulationError(
                "scheduler migration would bind two threads to one core; "
                f"proposed moves: {sorted(real.items())}"
            )
        for tid, core in real.items():
            self.threads[tid].core_id = core
            if penalty:
                self._delays[tid] = self._delays.get(tid, 0) + penalty
        return len(real)

    def run(self) -> EngineResult:
        """Execute until every VM has completed its measured references.

        The heap is keyed on each thread's next *issue* time (its ready
        time plus the pending reference's think time), so references
        *issue* in globally non-decreasing time order (their later
        messages need not; see :class:`~repro.sim.server.FifoServer`).
        """
        threads = self.threads
        inv = self._inv_speeds
        pending: Dict[int, tuple] = {}
        heap: List[Tuple[int, int]] = []
        for tid in sorted(threads):
            ref = next(threads[tid].references, None)
            if ref is None:
                raise SimulationError(
                    f"thread {tid} reference stream ended; workload "
                    "generators must be infinite (restart on completion)"
                )
            pending[tid] = ref
            think = ref[2]
            if inv is not None:
                think = int(think * inv[threads[tid].core_id])
            heap.append((threads[tid].start_time + think, tid))
        heapq.heapify(heap)

        vm_pending: Dict[int, int] = {}
        for thread in threads.values():
            vm_pending[thread.vm_id] = vm_pending.get(thread.vm_id, 0) + 1
        vm_completion: Dict[int, int] = {}
        pending_vms = len(vm_pending)

        probe = self.probe
        control = self.control
        # the hook only acts at control-epoch boundaries, so the hot
        # loop gates on its published next-due cycle: an int compare
        # per step instead of a Python call into an early-returning
        # on_step
        control_due = control.next_due if control is not None else None
        delays = self._delays
        has_stops = self._has_stops
        access_machine = self.machine.access
        heappop = heapq.heappop
        heappush = heapq.heappush
        max_steps = self.max_steps
        steps = 0
        while pending_vms > 0:
            steps += 1
            if steps > max_steps:
                raise SimulationError(
                    f"engine exceeded {max_steps} steps without all "
                    f"VMs completing; {pending_vms} VM(s) still pending"
                )
            issue_time, tid = heappop(heap)
            if probe is not None:
                probe.on_step(issue_time)
            if control_due is not None and issue_time >= control_due:
                control.on_step(issue_time)
                control_due = control.next_due
            if delays:
                # a scheduler migration charged this thread a one-shot
                # cost: push its issue out and retry (same re-insertion
                # pattern as the MigratingEngine)
                extra = delays.pop(tid, 0)
                if extra:
                    heappush(heap, (issue_time + extra, tid))
                    continue
            thread = threads[tid]
            if has_stops and thread.stop_time is not None \
                    and issue_time >= thread.stop_time:
                # VM churn: the thread departs at its first issue past
                # stop_time.  A truncated measured window completes at
                # departure; the freed core stays idle for the rest of
                # the run (dynamic schedulers may migrate onto it).
                self._retired.add(tid)
                if thread.completion_time is None:
                    thread.completion_time = issue_time
                    vm = thread.vm_id
                    vm_pending[vm] -= 1
                    if vm_pending[vm] == 0:
                        vm_completion[vm] = issue_time
                        pending_vms -= 1
                        if probe is not None:
                            probe.on_vm_complete(vm, issue_time)
                continue
            block, access, think = pending[tid]
            result = access_machine(
                thread.core_id, block, bool(access), issue_time
            )
            finish = issue_time + result.latency + 1  # +1: the access itself

            index = thread.issued
            thread.issued += 1
            window_start = thread.warmup_refs
            window_end = window_start + thread.measured_refs
            if window_start <= index < window_end:
                if inv is not None:
                    # charge the think cycles the thread actually spent
                    # on its (possibly slow) core
                    think = int(think * inv[thread.core_id])
                thread.stats.record(access, think, result)
                if thread.issued == window_end:
                    thread.completion_time = finish
                    vm = thread.vm_id
                    vm_pending[vm] -= 1
                    if vm_pending[vm] == 0:
                        vm_completion[vm] = finish
                        pending_vms -= 1
                        if probe is not None:
                            probe.on_vm_complete(vm, finish)
            next_ref = next(thread.references, None)
            if next_ref is None:
                raise SimulationError(
                    f"thread {tid} reference stream ended; workload "
                    "generators must be infinite (restart on completion)"
                )
            pending[tid] = next_ref
            think = next_ref[2]
            if inv is not None:
                think = int(think * inv[thread.core_id])
            heappush(heap, (finish + think, tid))

        # The run "finishes" when the last VM completes: the maximum
        # completion time.  (The last *popped* issue_time undercounts
        # the completing access's latency and is not necessarily the
        # largest completion across VMs.)
        final_time = max(vm_completion.values())
        if probe is not None:
            probe.finish(final_time)
        if control is not None:
            control.finish(final_time)
        result = EngineResult(
            final_time=final_time,
            vm_completion_times=vm_completion,
            thread_stats={tid: t.stats for tid, t in threads.items()},
            total_refs_processed=steps,
        )
        result._vm_of = {tid: t.vm_id for tid, t in threads.items()}
        return result
