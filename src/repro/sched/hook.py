"""Epoch-boundary scheduler actuation inside the simulation engines.

A :class:`SchedHook` drives one :class:`~repro.sched.policies.Scheduler`
with the engines' epoch-gated control cadence (the same ``next_due`` /
``on_step`` protocol as :class:`~repro.qos.hook.QosHook`): every
``epoch`` simulated cycles it closes a sensing window through its
:class:`~repro.obs.probes.Sensor`, asks the policy for a
:class:`~repro.sched.policies.SchedDecision`, and actuates it:

* on the single-slot reference engine, through
  :meth:`~repro.sim.engine.Engine.apply_migrations` — an atomic
  permutation rebind that charges each moved thread the
  ``migration_penalty``;
* on the over-commit engine, through
  :meth:`~repro.sim.overcommit.OvercommitEngine.rebind_thread` — the
  same run-queue actuator the QoS layer uses, which charges the
  engine's context-switch penalty when a migrated thread wakes an
  idle core.

Either way the hypervisor's binding bookkeeping
(:meth:`~repro.vm.hypervisor.Hypervisor.rebind_thread`) keeps VM/core
attribution consistent.  Counters (``sched.control_epochs``,
``sched.migrations``, ``sched.proposed``, ``sched.refused``) and a
``sched.migrate`` instant event per actuated epoch land in the run's
telemetry hub, so migrations show up in distributed traces; with the
default null hub they cost nothing.

The hook ``needs`` the migrate capability (see :mod:`repro.control`);
the batched kernel folds per thread, cannot re-home threads mid-run and
does not provide it, so scheduler runs resolve to the reference
engines.  :class:`~repro.control.CompositeControl` (re-exported here)
lets a :class:`SchedHook` and a :class:`~repro.qos.hook.QosHook` share
an engine's single control slot, each keeping its own epoch.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..control import MIGRATE, REQUEUE, CompositeControl, requeue
from ..errors import ConfigurationError
from ..obs.probes import Sensor
from .policies import Scheduler, SchedView

__all__ = ["SchedHook", "CompositeControl"]


class SchedHook:
    """Drives one scheduling policy at a fixed control epoch.

    Parameters
    ----------
    chip:
        The machine; contention signals are read from its inspection
        methods and the core->domain map is taken once at attach.
    threads:
        The engine's thread contexts (sensing is read-only; actuation
        goes through the engine and hypervisor).
    policy:
        An *attached-by-us* scheduler: the hook builds the
        :class:`~repro.sched.policies.SchedView` and calls
        ``policy.attach`` itself.
    epoch:
        Control period in simulated cycles.
    hypervisor:
        Needed for binding bookkeeping whenever migrations may happen.
    migration_penalty:
        Cycles charged to each thread moved on the single-slot engine
        (the over-commit engine charges its own switch penalty).
    slots_per_core, rng:
        Forwarded into the policy's view.
    """

    needs = frozenset({MIGRATE})

    def __init__(self, chip, threads, policy: Scheduler, epoch: int,
                 telemetry=None, hypervisor=None,
                 migration_penalty: int = 1_000,
                 slots_per_core: int = 1, rng=None):
        if epoch <= 0:
            raise ConfigurationError("sched epoch must be positive")
        if migration_penalty < 0:
            raise ConfigurationError(
                "migration penalty must be non-negative")
        if telemetry is None:
            from ..obs.telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.chip = chip
        self.threads = list(threads)
        self._by_id = {t.thread_id: t for t in self.threads}
        self.policy = policy
        self.epoch = epoch
        self.telemetry = telemetry
        # register outcome counters up front so even a run that never
        # migrates exports them at zero
        for name in ("sched.control_epochs", "sched.proposed",
                     "sched.migrations", "sched.refused"):
            telemetry.counter(name)
        self.hypervisor = hypervisor
        self.migration_penalty = migration_penalty
        self.next_due = epoch
        self.control_epochs = 0
        self.migrations = 0
        self.proposed = 0
        self.refused = 0
        self._actuator = None

        self.sensor = sensor = Sensor(chip, self.threads)
        policy.attach(SchedView(
            num_cores=(sensor.num_cores if sensor.num_cores is not None
                       else 1 + max(t.core_id for t in self.threads)),
            slots_per_core=slots_per_core,
            domain_of_core=sensor.domain_of_core,
            inverse_speeds=sensor.inverse_speeds,
            rng=rng,
        ))

    # -- wiring ---------------------------------------------------------

    def bind_actuator(self, engine) -> None:
        """Give the hook the engine's migration actuator.

        Either surface works: ``apply_migrations`` (single-slot
        reference engine) or ``rebind_thread`` (over-commit run
        queues); both expose ``run_queues()`` for sensing.
        """
        self._actuator = engine

    # -- engine hooks ---------------------------------------------------

    def on_step(self, now: int) -> None:
        """Called once per engine step with the current issue time."""
        if now >= self.next_due:
            self.control(now)
            # re-arm relative to the actual control instant (see the
            # QosHook for why snapping back to the grid would bias the
            # sensing windows)
            self.next_due = now + self.epoch

    def finish(self, final_time: int) -> None:
        self.telemetry.gauge("sched.control_epochs").set(
            float(self.control_epochs))
        self.telemetry.gauge("sched.migrations").set(float(self.migrations))

    # -- the control loop -----------------------------------------------

    def control(self, now: int) -> None:
        """Run one sense → decide → actuate cycle."""
        self.control_epochs += 1
        telemetry = self.telemetry
        telemetry.counter("sched.control_epochs").inc()
        queues = None
        if self._actuator is not None:
            queues = self._actuator.run_queues()
        window = self.sensor.window(now, queues=queues)
        decision = self.policy.decide(window)
        if not decision.migrations or self._actuator is None:
            return

        self.proposed += len(decision.migrations)
        telemetry.counter("sched.proposed").inc(len(decision.migrations))
        applied = self._actuate(decision.migrations, now)
        if applied:
            self.migrations += applied
            telemetry.counter("sched.migrations").inc(applied)
            if telemetry.enabled:
                telemetry.series_for("sched.migrations").append(
                    now, float(self.migrations))
                telemetry.event(
                    "sched.migrate", "sched", "i", now,
                    attrs={"policy": self.policy.name, "moves": applied})

    def _actuate(self, moves: Dict[int, int], now: int) -> int:
        engine = self._actuator
        if REQUEUE in engine.provides:
            applied, refused = requeue(engine, moves, self._by_id, now,
                                       self.hypervisor)
        else:
            applied, refused = self._actuate_single_slot(engine, moves, now)
        if refused:
            self.refused += refused
            self.telemetry.counter("sched.refused").inc(refused)
        return applied

    def _actuate_single_slot(self, engine, moves: Dict[int, int],
                             now: int) -> Tuple[int, int]:
        previous = {tid: self._by_id[tid].core_id
                    for tid in moves if tid in self._by_id}
        applied = engine.apply_migrations(
            moves, now, penalty=self.migration_penalty)
        if not applied:
            return 0, len(moves)
        if self.hypervisor is not None:
            for tid in sorted(previous):
                thread = self._by_id[tid]
                if thread.core_id == previous[tid]:
                    continue  # skipped by the engine (no-op move)
                self.hypervisor.rebind_thread(
                    thread, thread.core_id,
                    previous=previous[tid], bind_core=True)
        return applied, 0

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict:
        """JSON-friendly account of what the scheduler did."""
        return {
            "policy": self.policy.name,
            "epoch": self.epoch,
            "control_epochs": self.control_epochs,
            "migrations": self.migrations,
            "proposed": self.proposed,
            "refused": self.refused,
            "final_binding": {
                str(t.thread_id): t.core_id
                for t in sorted(self.threads, key=lambda t: t.thread_id)
            },
        }
