"""Over-committed execution: more threads than cores.

The paper's methodology never over-commits the machine, but Section VII
names over-commitment (and the resulting context-switch-driven thread
placement) as the future-work scenario its *random* scheduling policy
approximates.  :class:`OvercommitEngine` implements it: each core
time-multiplexes a run queue of threads with a fixed reference quantum
and a context-switch penalty, so the "seemingly random" assignment the
paper describes emerges from actual scheduling churn instead of being
assumed.

Measurement semantics match :class:`~repro.sim.engine.Engine`: per-
thread warm-up then a measured window, per-VM completion at the last
thread's window end, finished VMs keep running until all complete.
VM churn composes the same way it does on the base engine: a thread
with a ``stop_time`` retires at its first issue past it, leaving its
run-queue slot free (a fully drained queue idles the core until a
scheduler migrates a waiting thread onto it).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Tuple

from ..control import (ASYM_L2, CORE_SPEEDS, LOAD_SCALE, MIGRATE, QUOTA,
                       REQUEUE, RETARGET, RETIRE)
from ..errors import SimulationError
from .engine import EngineResult, MachineModel, ThreadContext

__all__ = ["OvercommitEngine"]


class OvercommitEngine:
    """Time-multiplexes thread run queues on each core.

    Parameters
    ----------
    machine:
        The timing model.
    threads:
        Thread contexts; multiple threads may name the same core.
    quantum_refs:
        References a thread issues before the core switches to the
        next queued thread (only when others are waiting).
    switch_penalty:
        Cycles charged on every context switch (pipeline refill, state
        swap); misses caused by the evicted thread's cooled-down cache
        footprint emerge from the cache model itself.
    control:
        Optional :class:`~repro.qos.hook.QosHook` called once per step.
        Beyond quota rewrites, a control hook attached to this engine
        may also migrate *waiting* threads between run queues through
        :meth:`rebind_thread` (QoS-driven load shedding).
    """

    #: capabilities (:mod:`repro.control`): no epoch-probe slot
    provides = frozenset({QUOTA, MIGRATE, REQUEUE, RETIRE, RETARGET,
                          LOAD_SCALE, CORE_SPEEDS, ASYM_L2})

    def __init__(
        self,
        machine: MachineModel,
        threads: List[ThreadContext],
        quantum_refs: int = 64,
        switch_penalty: int = 200,
        max_steps: int | None = None,
        control=None,
    ):
        if not threads:
            raise SimulationError("engine needs at least one thread")
        if quantum_refs <= 0:
            raise SimulationError("quantum_refs must be positive")
        if switch_penalty < 0:
            raise SimulationError("switch_penalty must be non-negative")
        self.machine = machine
        self.threads = {t.thread_id: t for t in threads}
        self.quantum_refs = quantum_refs
        self.switch_penalty = switch_penalty
        self.control = control
        demand = sum(t.warmup_refs + t.measured_refs for t in threads)
        self.max_steps = max_steps if max_steps is not None else 64 * demand
        self._queues: Dict[int, Deque[int]] = {}
        for thread in threads:
            self._queues.setdefault(thread.core_id, deque()).append(
                thread.thread_id
            )
        # run-state shared with the QoS re-bind actuator (filled in run)
        self._pending: Dict[int, tuple] = {}
        self._heap: List[Tuple[int, int]] = []
        self._quantum_left: Dict[int, int] = {}
        self._bind = None
        self.qos_rebinds = 0
        self._has_stops = any(t.stop_time is not None for t in threads)
        # threads that departed via stop_time (VM churn)
        self._retired: set = set()
        # heterogeneous cores: per-core think multipliers, or None on
        # a homogeneous machine (exact legacy arithmetic)
        self._inv_speeds = getattr(machine, "inverse_core_speeds", None)

    # -- QoS actuator surface (used by repro.qos.hook.QosHook) ---------

    def run_queues(self) -> Dict[int, List[int]]:
        """Snapshot of each core's run queue (head = active thread).

        Queues drained by departed (churned) threads are omitted, like
        the base engine's freed cores — those cores are idle.
        """
        return {core: list(queue) for core, queue in self._queues.items()
                if queue}

    def rebind_thread(self, tid: int, core: int, now: int):
        """Migrate a *waiting* thread to another core's run queue.

        Returns ``None`` when the move is refused (unknown thread, a
        no-op move, or the thread is at the head of its queue — i.e.
        currently running), ``True`` when the thread became the head of
        a previously idle core (which gets a fresh heap entry and the
        VM binding), and ``False`` when it joined the tail of a busy
        queue and will run at a future rotation.
        """
        thread = self.threads.get(tid)
        if thread is None or core == thread.core_id:
            return None
        source = self._queues.get(thread.core_id)
        if not source or source[0] == tid or tid not in source:
            return None
        source.remove(tid)
        target = self._queues.setdefault(core, deque())
        became_head = not target
        target.append(tid)
        thread.core_id = core
        self.qos_rebinds += 1
        if became_head:
            # wake the idle core: charge a switch penalty and schedule
            # the migrated thread's pending reference
            self._quantum_left[core] = self.quantum_refs
            think = self._pending[tid][2]
            inv = self._inv_speeds
            if inv is not None:
                think = int(think * inv[core])
            heapq.heappush(
                self._heap, (now + self.switch_penalty + think, core))
            if self._bind is not None:
                self._bind(core, thread.vm_id)
        return became_head

    def run(self) -> EngineResult:
        threads = self.threads
        queues = self._queues
        pending = self._pending
        for tid, thread in threads.items():
            ref = next(thread.references, None)
            if ref is None:
                raise SimulationError(f"thread {tid} stream ended at start")
            pending[tid] = ref

        # heterogeneous cores scale think cycles by the issuing core's
        # inverse speed; the same expression as the base engine's
        inv = self._inv_speeds
        quantum_refs = self.quantum_refs
        switch_penalty = self.switch_penalty
        # heap of (next issue time, core); each core runs the thread at
        # the head of its queue
        heap = self._heap
        quantum_left = self._quantum_left
        # keep the machine's core->VM attribution in step with the
        # active thread so occupancy snapshots stay meaningful
        bind = self._bind = getattr(self.machine, "bind_core_to_vm", None)
        for core, queue in queues.items():
            tid = queue[0]
            thread = threads[tid]
            if bind is not None:
                bind(core, thread.vm_id)
            think = pending[tid][2]
            if inv is not None:
                think = int(think * inv[core])
            heap.append((thread.start_time + think, core))
            quantum_left[core] = quantum_refs
        heapq.heapify(heap)

        vm_pending: Dict[int, int] = {}
        for thread in threads.values():
            vm_pending[thread.vm_id] = vm_pending.get(thread.vm_id, 0) + 1
        vm_completion: Dict[int, int] = {}
        pending_vms = len(vm_pending)

        control = self.control
        # epoch-gated like the base engine: int compare per step
        control_due = control.next_due if control is not None else None
        has_stops = self._has_stops
        access_machine = self.machine.access
        heappop = heapq.heappop
        heappush = heapq.heappush
        max_steps = self.max_steps
        steps = 0
        issue_time = 0
        context_switches = 0
        while pending_vms > 0:
            steps += 1
            if steps > max_steps:
                raise SimulationError(
                    f"over-commit engine exceeded {max_steps} steps; "
                    f"{pending_vms} VM(s) still pending"
                )
            issue_time, core = heappop(heap)
            if control_due is not None and issue_time >= control_due:
                # the hook may rewrite quotas and migrate *waiting*
                # threads; the popped core's head thread never moves
                control.on_step(issue_time)
                control_due = control.next_due
            queue = queues[core]
            tid = queue[0]
            thread = threads[tid]
            if has_stops and thread.stop_time is not None \
                    and issue_time >= thread.stop_time:
                # VM churn: the head thread departs at its first issue
                # past stop_time, freeing its queue slot.  A truncated
                # measured window completes at departure.  The next
                # queued thread takes the core (one switch penalty); a
                # drained queue idles the core until a scheduler
                # migrates a waiting thread onto it.
                queue.popleft()
                self._retired.add(tid)
                if thread.completion_time is None:
                    thread.completion_time = issue_time
                    vm = thread.vm_id
                    vm_pending[vm] -= 1
                    if vm_pending[vm] == 0:
                        vm_completion[vm] = issue_time
                        pending_vms -= 1
                if queue:
                    next_tid = queue[0]
                    quantum_left[core] = quantum_refs
                    context_switches += 1
                    if bind is not None \
                            and threads[next_tid].vm_id != thread.vm_id:
                        bind(core, threads[next_tid].vm_id)
                    think = pending[next_tid][2]
                    if inv is not None:
                        think = int(think * inv[core])
                    heappush(heap, (issue_time + switch_penalty + think, core))
                continue
            block, access, think = pending[tid]
            result = access_machine(core, block, bool(access), issue_time)
            finish = issue_time + result.latency + 1

            index = thread.issued
            thread.issued += 1
            window_start = thread.warmup_refs
            window_end = window_start + thread.measured_refs
            if window_start <= index < window_end:
                if inv is not None:
                    think = int(think * inv[core])
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

            left = quantum_left[core] - 1
            if left <= 0 and len(queue) > 1:
                queue.rotate(-1)
                quantum_left[core] = quantum_refs
                finish += switch_penalty
                context_switches += 1
                next_tid = queue[0]
                if bind is not None and threads[next_tid].vm_id != thread.vm_id:
                    bind(core, threads[next_tid].vm_id)
                think = pending[next_tid][2]
            else:
                quantum_left[core] = quantum_refs if left <= 0 else left
                think = next_ref[2]
            if inv is not None:
                think = int(think * inv[core])
            heappush(heap, (finish + think, core))

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
        result.context_switches = context_switches
        return result
