"""Epoch-boundary QoS actuation inside the simulation engines.

A :class:`QosHook` is the bridge between a
:class:`~repro.qos.controllers.QosController` and a running engine.
The engine calls :meth:`QosHook.on_step` once per event-loop step (the
same pattern as the observability layer's
:class:`~repro.obs.probes.EpochProbe`); every ``epoch`` simulated
cycles the hook closes a sensing window, asks the controller for a
:class:`~repro.qos.controllers.QosDecision`, and applies it:

* **quota rewrites** through
  :meth:`~repro.caches.partitioning.WayQuota.set_quota` on the live
  per-domain :class:`~repro.caches.partitioning.WayQuota` objects;
* **thread re-binds** (over-commit only) through the engine's run-queue
  actuator plus :meth:`~repro.vm.hypervisor.Hypervisor.rebind_thread`
  for the binding bookkeeping.

Counters (``qos.control_epochs``, ``qos.adjustments``, ``qos.rebinds``,
``qos.violation_epochs``) and per-VM ``qos.vm<N>.ways`` /
``qos.vm<N>.slowdown`` time series land in the run's telemetry hub;
with the default null hub they cost nothing.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..caches.partitioning import WayQuota, equal_quotas
from ..control import QUOTA, REQUEUE, requeue
from ..obs.probes import Sensor
from .controllers import QosController, QosView

__all__ = ["QosHook"]


class QosHook:
    """Drives one controller at a fixed control epoch.

    Parameters
    ----------
    chip:
        The machine; quotas are installed on its shared domains and
        tap-wanting controllers (UCP) get its L2 access stream.
    threads:
        The engine's thread contexts (sensing is read-only).
    controller:
        An *attached-by-us* controller: the hook builds the
        :class:`~repro.qos.controllers.QosView` and calls
        ``controller.attach`` itself.
    epoch:
        Control period in simulated cycles.
    hypervisor:
        Needed only when re-binding may happen (over-commit runs).
    baseline_cpr, target:
        Feedback-controller inputs (see
        :class:`~repro.qos.controllers.TargetSlowdown`).
    """

    #: quota rewrites are the hook's actuation; its thread re-binds
    #: ride the run-queue actuator only where an engine provides one
    needs = frozenset({QUOTA})

    def __init__(self, chip, threads, controller: QosController,
                 assignments, epoch: int, telemetry=None,
                 hypervisor=None, baseline_cpr: Optional[Dict[int, float]] = None,
                 target: float = 0.0,
                 vm_workloads: Optional[Dict[int, str]] = None):
        if epoch <= 0:
            raise ValueError("qos epoch must be positive")
        if telemetry is None:
            from ..obs.telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.chip = chip
        self.threads = list(threads)
        self._by_id = {t.thread_id: t for t in self.threads}
        self.controller = controller
        self.epoch = epoch
        self.telemetry = telemetry
        self.hypervisor = hypervisor
        self.next_due = epoch
        self.control_epochs = 0
        self.adjustments = 0
        self.rebinds = 0
        self._actuator = None
        self._seen_violations = 0

        # the one quota setup: an equal split, in sorted VM order, on
        # every domain several VMs share (others need no partition)
        domain_vms: Dict[int, set] = {}
        for vm_id, cores in enumerate(assignments):
            for core in cores:
                domain_vms.setdefault(
                    chip.domain_of_core(core), set()).add(vm_id)
        shared = {domain: sorted(vms)
                  for domain, vms in sorted(domain_vms.items())
                  if len(vms) > 1}
        assoc = chip.config.l2_assoc
        self.quotas: Dict[int, WayQuota] = {}
        for domain_id, vms in shared.items():
            quota = WayQuota(equal_quotas(vms, assoc), assoc)
            chip.domains[domain_id].set_quota(quota)
            self.quotas[domain_id] = quota
        view = QosView(
            assoc=assoc, domain_vms=shared,
            vm_workloads=dict(
                vm_workloads
                if vm_workloads is not None
                else {t.vm_id: "" for t in self.threads}
            ),
            baseline_cpr=dict(baseline_cpr or {}),
            target=target,
        )
        controller.attach(view)
        if controller.wants_l2_tap:
            monitors = controller.build_monitors(chip)

            def tap(domain_id: int, vm_id: int, block: int) -> None:
                monitor = monitors.get(domain_id)
                if monitor is not None:
                    monitor.observe(vm_id, block)

            chip.set_l2_tap(tap)
        self.sensor = Sensor(chip, self.threads)

    # -- wiring ---------------------------------------------------------

    def bind_actuator(self, engine) -> None:
        """Take the engine's run-queue actuator (``run_queues()`` /
        ``rebind_thread(tid, core, now)``) when it provides one."""
        if REQUEUE in engine.provides:
            self._actuator = engine

    # -- engine hooks ---------------------------------------------------

    def on_step(self, now: int) -> None:
        """Called once per engine step with the current issue time."""
        if now >= self.next_due:
            self.control(now)
            # Arm relative to the actual control instant rather than
            # snapping back to the epoch grid: a grid-aligned next_due
            # after an off-grid control cycle (now=250, epoch=100 →
            # next_due=300) gives the controller a sub-epoch sensing
            # window and biases its per-window slowdown estimates.
            self.next_due = now + self.epoch

    def finish(self, final_time: int) -> None:
        """End-of-run cleanup: detach the tap, flush final telemetry."""
        if self.controller.wants_l2_tap:
            self.chip.set_l2_tap(None)
        self.telemetry.gauge("qos.control_epochs").set(
            float(self.control_epochs)
        )

    # -- the control loop -----------------------------------------------

    def control(self, now: int) -> None:
        """Run one sense → decide → actuate cycle."""
        self.control_epochs += 1
        telemetry = self.telemetry
        telemetry.counter("qos.control_epochs").inc()
        queues = None
        if self._actuator is not None:
            queues = self._actuator.run_queues()
        window = self.sensor.window(now, queues=queues)
        decision = self.controller.decide(window)

        changed = 0
        for domain_id in sorted(decision.quotas):
            quota = self.quotas.get(domain_id)
            if quota is None:
                continue
            changed += quota.update(decision.quotas[domain_id])
        if changed:
            self.adjustments += changed
            telemetry.counter("qos.adjustments").inc(changed)

        if decision.rebinds and self._actuator is not None:
            applied, _refused = requeue(self._actuator, decision.rebinds,
                                        self._by_id, now, self.hypervisor)
            if applied:
                self.rebinds += applied
                telemetry.counter("qos.rebinds").inc(applied)

        violations = getattr(self.controller, "violations", None)
        if violations is not None and violations > self._seen_violations:
            telemetry.counter("qos.violation_epochs").inc(
                violations - self._seen_violations
            )
            self._seen_violations = violations

        if telemetry.enabled:
            self._record_series(now)

    def _record_series(self, now: int) -> None:
        ways_by_vm: Dict[int, int] = {}
        for quota in self.quotas.values():
            for vm, ways in quota.quotas.items():
                ways_by_vm[vm] = ways_by_vm.get(vm, 0) + ways
        for vm in sorted(ways_by_vm):
            self.telemetry.series_for(f"qos.vm{vm}.ways").append(
                now, float(ways_by_vm[vm])
            )
        slowdowns = getattr(self.controller, "slowdowns", None)
        if slowdowns:
            for vm in sorted(slowdowns):
                self.telemetry.series_for(f"qos.vm{vm}.slowdown").append(
                    now, round(slowdowns[vm], 6)
                )

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict:
        """JSON-friendly account of what the controller did."""
        out = {
            "policy": self.controller.name,
            "epoch": self.epoch,
            "control_epochs": self.control_epochs,
            "quota_adjustments": self.adjustments,
            "rebinds": self.rebinds,
            "final_quotas": {
                str(domain): {str(vm): ways
                              for vm, ways in sorted(q.quotas.items())}
                for domain, q in sorted(self.quotas.items())
            },
        }
        violations = getattr(self.controller, "violations", None)
        if violations is not None:
            out["violation_epochs"] = violations
            out["target"] = self.controller.view.target
            out["final_slowdown_estimates"] = {
                str(vm): round(s, 4)
                for vm, s in sorted(self.controller.slowdowns.items())
            }
        return out
