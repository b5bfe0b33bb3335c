"""Epoch-boundary scenario actuation inside the simulation engines.

A :class:`ScenarioHook` drives one :class:`~repro.scenarios.model.Scenario`
with the engines' epoch-gated control cadence (the same ``next_due`` /
``on_step`` protocol as :class:`~repro.qos.hook.QosHook` and
:class:`~repro.sched.hook.SchedHook`, and composable with both through
:class:`~repro.control.CompositeControl`).  Every ``epoch``
simulated cycles it:

* samples the scenario's load curve (plus seeded jitter from the run's
  dedicated ``"scenario"`` RNG stream) and converts the offered-load
  factor into a think-cycle multiplier of ``1/load`` on every thread
  trace — applied only when the multiplier actually changes, so a flat
  curve at 1.0 never touches the reference streams;
* actuates any scripted per-VM phase switches that have come due,
  retargeting the VM's traces with the switch's behavioural overrides
  (:meth:`~repro.workloads.generator.ThreadTrace.retarget` drops
  pre-generated batches, so the switch takes effect promptly and
  deterministically);
* closes a per-window attribution record: references issued per VM
  since the previous control epoch, alongside the load level — the raw
  material for the per-phase metrics in scenario reports.

VM arrival and departure are *not* actuated here: churn rides the
engine-native ``start_time`` / ``stop_time`` machinery the scenario
compiles into the launch (see :mod:`repro.core.experiment`), which
keeps thread retirement exactly as deterministic as PR 9's
``vm_schedule`` runs.

The hook ``needs`` trace retargeting and load scaling (see
:mod:`repro.control`); the batched kernel pre-folds reference batches
and provides neither, so scenario runs resolve to the reference
engines.  Departures add the ``retire`` need through the run's stop
times.
"""

from __future__ import annotations

from typing import Dict, List

from ..control import LOAD_SCALE, RETARGET
from ..errors import ConfigurationError
from .model import Scenario

__all__ = ["ScenarioHook"]

#: jittered load is clamped here so a pathological draw can never
#: stretch think times unboundedly
_MIN_LOAD = 0.05


class ScenarioHook:
    """Drives one scenario's load curve and phase script at its epoch.

    Parameters
    ----------
    scenario:
        The declarative scenario being actuated.
    vms:
        The hypervisor's launched :class:`~repro.vm.hypervisor.VirtualMachine`
        list, in roster order — the hook reaches each VM's thread
        traces through ``vm.instance.traces``.
    threads:
        The engine's thread contexts (read-only: per-window issued
        attribution).
    rng:
        The run's seeded ``"scenario"`` stream; consumed only when the
        curve declares jitter.
    """

    needs = frozenset({RETARGET, LOAD_SCALE})

    def __init__(self, scenario: Scenario, vms, threads, rng=None,
                 telemetry=None):
        if len(vms) != len(scenario.roster):
            raise ConfigurationError(
                f"scenario {scenario.name!r} has {len(scenario.roster)} "
                f"roster entries but {len(vms)} VMs were launched")
        if telemetry is None:
            from ..obs.telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.scenario = scenario
        self.vms = list(vms)
        self.threads = list(threads)
        self.rng = rng
        self.telemetry = telemetry
        for name in ("scenario.control_epochs", "scenario.load_adjustments",
                     "scenario.switches"):
            telemetry.counter(name)
        self.epoch = scenario.epoch
        self.next_due = scenario.epoch
        self.control_epochs = 0
        self.load_adjustments = 0
        self.switches_applied = 0
        self.windows: List[Dict] = []
        self._think_scale = 1.0
        # per-VM pending switch scripts, consumed front-to-back
        self._pending_switches: List[List] = [
            list(slot.switches) for slot in scenario.roster
        ]
        self._threads_of_vm: Dict[int, List] = {}
        for thread in self.threads:
            self._threads_of_vm.setdefault(thread.vm_id, []).append(thread)
        self._issued_at_last: Dict[int, int] = {
            vm.vm_id: 0 for vm in self.vms
        }
        self._last_window_end = 0
        self._last_load = scenario.curve.load_at(0)

    # -- engine hooks ---------------------------------------------------

    def bind_actuator(self, engine) -> None:
        """Scenario actuation goes through the traces, not the engine."""

    def on_step(self, now: int) -> None:
        if now >= self.next_due:
            self.control(now)
            # re-arm relative to the actual control instant, matching
            # the QoS/sched hooks' sensing-window convention
            self.next_due = now + self.epoch

    def finish(self, final_time: int) -> None:
        if final_time > self._last_window_end:
            self._close_window(final_time, self._last_load)
        self.telemetry.gauge("scenario.control_epochs").set(
            float(self.control_epochs))
        self.telemetry.gauge("scenario.load_adjustments").set(
            float(self.load_adjustments))

    # -- the control loop -----------------------------------------------

    def control(self, now: int) -> None:
        """Run one curve-sample → retarget → attribute cycle."""
        self.control_epochs += 1
        self.telemetry.counter("scenario.control_epochs").inc()

        load = self.scenario.curve.load_at(now)
        jitter = self.scenario.curve.jitter
        if jitter and self.rng is not None:
            load *= 1.0 + jitter * (2.0 * self.rng.random() - 1.0)
        load = max(load, _MIN_LOAD)
        self._apply_load(load, now)
        self._apply_switches(now)
        self._close_window(now, load)

    def _apply_load(self, load: float, now: int) -> None:
        think_scale = round(1.0 / load, 6)
        if think_scale == self._think_scale:
            return
        self._think_scale = think_scale
        self.load_adjustments += 1
        self.telemetry.counter("scenario.load_adjustments").inc()
        for vm in self.vms:
            for trace in vm.instance.traces:
                trace.set_load_scale(think_scale)
        if self.telemetry.enabled:
            self.telemetry.series_for("scenario.load").append(now, load)

    def _apply_switches(self, now: int) -> None:
        for vm_index, pending in enumerate(self._pending_switches):
            while pending and pending[0].at <= now:
                switch = pending.pop(0)
                overrides = dict(switch.overrides)
                for trace in self.vms[vm_index].instance.traces:
                    trace.retarget(**overrides)
                self.switches_applied += 1
                self.telemetry.counter("scenario.switches").inc()

    def _close_window(self, now: int, load: float) -> None:
        issued: Dict[str, int] = {}
        for vm in self.vms:
            total = sum(t.issued
                        for t in self._threads_of_vm.get(vm.vm_id, ()))
            delta = total - self._issued_at_last[vm.vm_id]
            self._issued_at_last[vm.vm_id] = total
            issued[str(vm.vm_id)] = delta
        self.windows.append({
            "start": self._last_window_end,
            "end": now,
            "load": round(load, 4),
            "think_scale": self._think_scale,
            "issued": issued,
        })
        self._last_window_end = now
        self._last_load = load

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict:
        """JSON-friendly account of what the scenario run did."""
        per_vm = {}
        for vm_index, vm in enumerate(self.vms):
            slot = self.scenario.roster[vm_index]
            per_vm[str(vm.vm_id)] = {
                "workload": vm.workload_name,
                "arrival": slot.arrival,
                "departure": slot.departure,
                "switches_scripted": len(slot.switches),
                "switches_remaining": len(self._pending_switches[vm_index]),
                "issued": self._issued_at_last[vm.vm_id],
            }
        return {
            "scenario": self.scenario.name,
            "epoch": self.epoch,
            "curve": self.scenario.curve.kind,
            "control_epochs": self.control_epochs,
            "load_adjustments": self.load_adjustments,
            "switches_applied": self.switches_applied,
            "windows": self.windows,
            "per_vm": per_vm,
        }

