"""Epoch-based sampling probes for the simulation engine.

An :class:`EpochProbe` rides along the engine's event loop: every
``epoch`` simulated cycles it snapshots per-VM behaviour (miss rate,
mean miss latency, L2 occupancy share) and the chip's shared-resource
queue depths into :class:`~repro.obs.series.TimeSeries` records and
simulated-time counter events on the hub's trace ring.

The probe is strictly *read-only* with respect to the machine: it
derives epoch deltas from the cumulative
:class:`~repro.sim.engine.ThreadStats` counters the engine maintains
anyway, and pulls occupancy / queue-depth snapshots through inspection
methods (:meth:`repro.machine.chip.Chip.queue_depths`,
:meth:`~repro.machine.chip.Chip.l2_occupancy_share`).  It therefore
cannot perturb simulation results — the determinism guard in
``tests/obs/test_determinism.py`` holds by construction.

Per-VM statistics cover the thread's *measured window* (the same window
the paper measures): epochs that fall entirely inside warm-up, or after
a VM completed, show zero activity for that VM — itself a useful phase
signal.

The probe works against any :class:`~repro.sim.engine.MachineModel`;
machines that lack the inspection methods (e.g. the trivial fakes in
the engine tests) simply produce no occupancy/queue series.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .telemetry import Telemetry

__all__ = ["VmDeltaTracker", "VmDelta", "EpochProbe"]


class VmDelta:
    """Per-VM activity inside one sampling window.

    All counts are *deltas* over the window, derived from the engine's
    cumulative :class:`~repro.sim.engine.ThreadStats`; ``issued`` is the
    cumulative mean references issued per thread (warm-up included),
    which feedback controllers use as a progress signal.
    """

    __slots__ = ("l1_misses", "l2_misses", "refs", "miss_latency_cycles",
                 "issued")

    def __init__(self, l1_misses: int, l2_misses: int, refs: int,
                 miss_latency_cycles: int, issued: float):
        self.l1_misses = l1_misses
        self.l2_misses = l2_misses
        self.refs = refs
        self.miss_latency_cycles = miss_latency_cycles
        self.issued = issued

    @property
    def miss_rate(self) -> float:
        """L2 misses per L2 access (L1 miss) inside the window."""
        return self.l2_misses / self.l1_misses if self.l1_misses else 0.0

    @property
    def mean_miss_latency(self) -> float:
        return (self.miss_latency_cycles / self.l1_misses
                if self.l1_misses else 0.0)


class VmDeltaTracker:
    """Turns cumulative per-thread counters into per-VM window deltas.

    Shared by the :class:`EpochProbe` (telemetry sampling) and the QoS
    control loop (:mod:`repro.qos.sensors`): both observe the same
    read-only :class:`~repro.sim.engine.ThreadStats` counters, so
    extracting the delta bookkeeping keeps the two consumers consistent
    by construction.
    """

    def __init__(self, threads):
        self.threads = list(threads)
        self.vm_ids = sorted({t.vm_id for t in self.threads})
        self.by_vm: Dict[int, List] = {}
        for thread in self.threads:
            self.by_vm.setdefault(thread.vm_id, []).append(thread)
        self._prev: Dict[int, tuple] = {
            vm: (0, 0, 0, 0) for vm in self.vm_ids
        }

    def snapshot(self) -> Dict[int, VmDelta]:
        """Deltas since the previous snapshot, keyed by VM id."""
        out: Dict[int, VmDelta] = {}
        for vm in self.vm_ids:
            l1 = l2 = refs = miss_lat = issued = 0
            for thread in self.by_vm[vm]:
                stats = thread.stats
                l1 += stats.l1_misses
                l2 += stats.l2_misses
                refs += stats.refs
                miss_lat += stats.miss_latency_cycles
                issued += thread.issued
            p_l1, p_l2, p_refs, p_lat = self._prev[vm]
            self._prev[vm] = (l1, l2, refs, miss_lat)
            out[vm] = VmDelta(
                l1_misses=l1 - p_l1,
                l2_misses=l2 - p_l2,
                refs=refs - p_refs,
                miss_latency_cycles=miss_lat - p_lat,
                issued=issued / len(self.by_vm[vm]),
            )
        return out


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
        self.threads = list(threads)
        self.epoch = epoch
        self.telemetry = telemetry
        self.next_due = epoch
        self.samples = 0
        self._tracker = VmDeltaTracker(self.threads)
        self._vm_ids = self._tracker.vm_ids
        self.observe(machine)

    def observe(self, machine) -> None:
        """Pull occupancy and queue depths from ``machine`` from now on
        (a batched engine models them itself: its chip never sees the
        references)."""
        self.machine = machine
        self._queue_depths = getattr(machine, "queue_depths", None)
        self._l2_share = getattr(machine, "l2_occupancy_share", None)

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
        shares = self._l2_share() if self._l2_share is not None else {}
        deltas = self._tracker.snapshot()
        miss_rate_args: Dict[str, float] = {}
        latency_args: Dict[str, float] = {}
        share_args: Dict[str, float] = {}
        for vm in self._vm_ids:
            delta = deltas[vm]
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

        queue_args: Optional[Dict[str, float]] = None
        if self._queue_depths is not None:
            depths = self._queue_depths(now)
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
