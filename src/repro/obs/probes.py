"""Epoch sensing for the engine's control loops and sampling probe.

A :class:`Sensor` turns the engine's cumulative, read-only
:class:`~repro.sim.engine.ThreadStats` counters into one
:class:`SensingWindow` per epoch.  Each window takes one per-thread
snapshot and derives every VM's delta from it by summing over the VM's
threads — the way :class:`~repro.core.metrics.VMMetrics` builds the
paper's per-VM metrics.  The same window feeds the
:class:`EpochProbe` (telemetry sampling), the QoS controllers
(:class:`~repro.qos.hook.QosHook`) and the scheduling policies
(:class:`~repro.sched.hook.SchedHook`), so all three see identical
numbers by construction.

The sensor is strictly *read-only* with respect to the machine: it
pulls occupancy and queue-depth snapshots through inspection methods
(:meth:`repro.machine.chip.Chip.queue_depths`,
:meth:`~repro.machine.chip.Chip.l2_domain_queue_depths`,
:meth:`~repro.machine.chip.Chip.l2_occupancy_share`), so sensing
cannot perturb simulation results — the determinism guard in
``tests/obs/test_determinism.py`` holds by construction.  Those
methods are duck-typed: machines that lack them (e.g. the trivial
fakes in the engine tests) simply give windows without domain signals
and a probe without occupancy/queue series.

Stats deltas cover each thread's *measured window* (the same window
the paper measures): epochs that fall entirely inside warm-up, or after
a VM completed, show zero activity for that VM — itself a useful phase
signal.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .telemetry import Telemetry

__all__ = ["Delta", "SensingWindow", "Sensor", "EpochProbe"]

#: the differenced ThreadStats counters, in Delta constructor order
_COUNTERS = ("refs", "l1_misses", "l2_misses", "miss_latency_cycles",
             "think_cycles")


class Delta:
    """One thread's or one VM's activity inside a sensing window.

    Counts are deltas over the window; ``issued`` is the cumulative
    references issued (warm-up included), the progress signal — for a
    VM, the mean over its threads.  A VM's delta has no ``thread_id``
    or ``core_id`` (both ``None``).
    """

    __slots__ = ("vm_id", "refs", "l1_misses", "l2_misses",
                 "miss_latency_cycles", "think_cycles", "issued",
                 "thread_id", "core_id")

    def __init__(self, vm_id: int, refs: int = 0, l1_misses: int = 0,
                 l2_misses: int = 0, miss_latency_cycles: int = 0,
                 think_cycles: int = 0, issued: float = 0,
                 thread_id: Optional[int] = None,
                 core_id: Optional[int] = None):
        self.vm_id = vm_id
        self.refs = refs
        self.l1_misses = l1_misses
        self.l2_misses = l2_misses
        self.miss_latency_cycles = miss_latency_cycles
        self.think_cycles = think_cycles
        self.issued = issued
        self.thread_id = thread_id
        self.core_id = core_id

    @classmethod
    def total(cls, vm_id: int, members: List["Delta"]) -> "Delta":
        """A VM's delta: its threads' counts summed, ``issued`` their
        integer sum over the thread count."""
        return cls(vm_id,
                   *(sum(getattr(d, name) for d in members)
                     for name in _COUNTERS),
                   issued=sum(d.issued for d in members) / len(members))

    @property
    def miss_rate(self) -> float:
        """L2 misses per L2 access (L1 miss) inside the window."""
        return self.l2_misses / self.l1_misses if self.l1_misses else 0.0

    @property
    def mean_miss_latency(self) -> float:
        """Average L1-miss latency — the paper's miss-latency metric."""
        return (self.miss_latency_cycles / self.l1_misses
                if self.l1_misses else 0.0)

    @property
    def stall_per_ref(self) -> float:
        """Miss-latency cycles per reference: memory-boundedness."""
        return self.miss_latency_cycles / self.refs if self.refs else 0.0

    @property
    def think_per_ref(self) -> float:
        """Compute cycles per reference: core-speed sensitivity."""
        return self.think_cycles / self.refs if self.refs else 0.0


class SensingWindow:
    """Everything a controller or policy sees at one epoch boundary."""

    __slots__ = ("now", "threads", "vms", "queues", "domain_queues",
                 "domain_of_core")

    def __init__(self, now: int,
                 threads: Optional[Dict[int, Delta]] = None,
                 vms: Optional[Dict[int, Delta]] = None,
                 queues: Optional[Dict[int, List[int]]] = None,
                 domain_queues: Optional[List[float]] = None,
                 domain_of_core: Optional[List[int]] = None):
        self.now = now
        #: per-thread deltas by thread id; with ``queues`` given, only
        #: the threads that are in a run queue
        self.threads = threads if threads is not None else {}
        #: per-VM deltas by VM id, over every thread of the VM
        self.vms = vms if vms is not None else {}
        #: per-core run queues from the engine actuator (head = active
        #: thread), or ``None`` when no actuator is attached
        self.queues = queues
        #: per-domain L2 bank backlog, or ``None`` off-chip
        self.domain_queues = domain_queues
        #: core -> L2 domain map, or ``None`` off-chip
        self.domain_of_core = domain_of_core

    def threads_on_domain(self, domain: int) -> List[Delta]:
        """Window deltas of the threads currently on ``domain``."""
        mapping = self.domain_of_core
        if mapping is None:
            return []
        return [d for d in self.threads.values()
                if mapping[d.core_id] == domain]

    def domain_pressure(self, domain: int) -> float:
        """Contention estimate for one L2 domain.

        The mean miss latency of the domain's active threads, inflated
        by the domain's bank backlog: miss latency captures how much
        each access suffers, the queue term how much demand is still
        piling up behind it.
        """
        members = [d for d in self.threads_on_domain(domain) if d.refs]
        latency = (sum(d.mean_miss_latency for d in members) / len(members)
                   if members else 0.0)
        depth = (self.domain_queues[domain]
                 if self.domain_queues is not None else 0.0)
        return latency * (1.0 + depth)


class Sensor:
    """Closes one :class:`SensingWindow` per call to :meth:`window`.

    The one place the control hooks and the probe look up the
    machine's inspection methods; besides the window signals it
    exposes the static facts the hooks hand their policies
    (``num_cores``, ``domain_of_core``, ``inverse_speeds``), ``None``
    where the machine lacks them.
    """

    def __init__(self, machine, threads):
        self.threads = sorted(threads, key=lambda t: t.thread_id)
        self.vm_ids = sorted({t.vm_id for t in self.threads})
        self._prev: Dict[int, tuple] = {
            t.thread_id: (0,) * len(_COUNTERS) for t in self.threads
        }
        self.observe(machine)

    def observe(self, machine) -> None:
        """Read machine signals from ``machine`` from now on (a batched
        engine models them itself: its chip never sees the
        references)."""
        self._queue_depths = getattr(machine, "queue_depths", None)
        self._l2_share = getattr(machine, "l2_occupancy_share", None)
        self._domain_depths = getattr(machine, "l2_domain_queue_depths",
                                      None)
        self.inverse_speeds = getattr(machine, "inverse_core_speeds", None)
        config = getattr(machine, "config", None)
        domain_of = getattr(machine, "domain_of_core", None)
        self.num_cores: Optional[int] = (
            config.num_cores if config is not None else None)
        self.domain_of_core: Optional[List[int]] = (
            [domain_of(core) for core in range(config.num_cores)]
            if domain_of is not None and config is not None else None)

    def window(self, now: int,
               queues: Optional[Dict[int, List[int]]] = None
               ) -> SensingWindow:
        """Deltas since the previous window, plus the chip's signals."""
        threads: Dict[int, Delta] = {}
        members: Dict[int, List[Delta]] = {vm: [] for vm in self.vm_ids}
        for thread in self.threads:
            stats = thread.stats
            current = tuple(getattr(stats, name) for name in _COUNTERS)
            previous = self._prev[thread.thread_id]
            self._prev[thread.thread_id] = current
            delta = threads[thread.thread_id] = Delta(
                thread.vm_id,
                *(c - p for c, p in zip(current, previous)),
                issued=thread.issued, thread_id=thread.thread_id,
                core_id=thread.core_id)
            members[thread.vm_id].append(delta)
        if queues is not None:
            # the engine's queues omit departed (churned) threads, whose
            # contexts keep a stale core binding; sensing them would let
            # a policy pick a departed thread as a migration partner and
            # propose a collision with the live thread on that core
            live = {tid for queue in queues.values() for tid in queue}
            threads = {tid: delta for tid, delta in threads.items()
                       if tid in live}
        return SensingWindow(
            now,
            threads=threads,
            vms={vm: Delta.total(vm, group)
                 for vm, group in members.items()},
            queues=queues,
            domain_queues=(self._domain_depths(now)
                           if self._domain_depths is not None else None),
            domain_of_core=self.domain_of_core,
        )

    def l2_occupancy(self) -> Dict[int, float]:
        """Each VM's chip-wide L2 occupancy share (``{}`` off-chip)."""
        return self._l2_share() if self._l2_share is not None else {}

    def queue_depths(self, now: int) -> Optional[Dict[str, float]]:
        """Shared-resource queue depths, or ``None`` off-chip."""
        return (self._queue_depths(now)
                if self._queue_depths is not None else None)


class EpochProbe:
    """Samples per-VM and chip-level time series every ``epoch`` cycles.

    Parameters
    ----------
    machine:
        The machine model being driven; queue depths and L2 occupancy
        are pulled from it when it exposes ``queue_depths(now)`` /
        ``l2_occupancy_share()`` (duck-typed, see module docstring).
    threads:
        The engine's thread contexts (the probe reads their
        ``stats`` / ``vm_id`` attributes, never writes them).
    epoch:
        Sampling period in simulated cycles.
    telemetry:
        The hub receiving series and trace events.
    """

    def __init__(self, machine, threads, epoch: int, telemetry: Telemetry):
        if epoch <= 0:
            raise ValueError("epoch must be positive")
        self.epoch = epoch
        self.telemetry = telemetry
        self.next_due = epoch
        self.samples = 0
        self.sensor = Sensor(machine, threads)

    def observe(self, machine) -> None:
        """Pull occupancy and queue depths from ``machine`` from now on."""
        self.sensor.observe(machine)

    # -- engine hooks ---------------------------------------------------

    def on_step(self, now: int) -> None:
        """Called once per engine step with the current issue time."""
        if now >= self.next_due:
            self.sample(now)
            # Schedule relative to the *actual* sample time, not the
            # epoch grid: grid realignment after an off-grid sample
            # (e.g. sampling at 250 with epoch=100 and arming 300)
            # produces a sub-epoch window whose deltas are biased low.
            # Relative arming guarantees every window spans at least
            # one full epoch.
            self.next_due = now + self.epoch

    def on_vm_complete(self, vm_id: int, finish: int) -> None:
        """Mark a VM's completion instant in the trace."""
        self.telemetry.event(f"vm{vm_id} complete", "sim", "i", finish,
                             tid=vm_id)

    def finish(self, final_time: int) -> None:
        """Take a closing sample at the end of the run."""
        self.sample(final_time)

    # -- sampling -------------------------------------------------------

    def sample(self, now: int) -> None:
        """Record one sample of every tracked quantity at ``now``."""
        telemetry = self.telemetry
        self.samples += 1
        shares = self.sensor.l2_occupancy()
        window = self.sensor.window(now)
        miss_rate_args: Dict[str, float] = {}
        latency_args: Dict[str, float] = {}
        share_args: Dict[str, float] = {}
        for vm, delta in window.vms.items():
            miss_rate = delta.miss_rate
            miss_latency = delta.mean_miss_latency
            share = float(shares.get(vm, 0.0))
            telemetry.series_for(f"vm{vm}.miss_rate").append(now, miss_rate)
            telemetry.series_for(f"vm{vm}.miss_latency").append(
                now, miss_latency
            )
            telemetry.series_for(f"vm{vm}.l2_share").append(now, share)
            key = f"vm{vm}"
            miss_rate_args[key] = round(miss_rate, 6)
            latency_args[key] = round(miss_latency, 3)
            share_args[key] = round(share, 6)

        depths = self.sensor.queue_depths(now)
        queue_args: Optional[Dict[str, float]] = None
        if depths is not None:
            queue_args = {}
            for resource, depth in sorted(depths.items()):
                telemetry.series_for(f"queue.{resource}").append(now, depth)
                queue_args[resource] = round(float(depth), 4)

        telemetry.event("miss_rate", "epoch", "C", now,
                        attrs=miss_rate_args)
        telemetry.event("miss_latency", "epoch", "C", now,
                        attrs=latency_args)
        telemetry.event("l2_share", "epoch", "C", now, attrs=share_args)
        if queue_args is not None:
            telemetry.event("queue_depth", "epoch", "C", now,
                            attrs=queue_args)
