"""One control protocol for the engines' epoch hooks.

The QoS, scheduler and scenario hooks form one policy family: each
implements :class:`Control` and declares, as a class constant, the
actuator capabilities it ``needs``.  Each engine declares the
capabilities it ``provides``, and the engine factory
(:mod:`repro.sim.factory`) refuses a build whose needs — the hook's
plus those of the run's shape — the engine does not cover, so no
engine silently ignores an input it cannot honour.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Protocol, Tuple

from .errors import ConfigurationError

__all__ = ["QUOTA", "MIGRATE", "REQUEUE", "RETIRE", "RETARGET", "LOAD_SCALE",
           "CORE_SPEEDS", "ASYM_L2", "EPOCH_PROBE", "CAPABILITIES", "Control",
           "CompositeControl", "requeue"]

QUOTA = "quota"                 # live way-quota rewrites take effect
MIGRATE = "migrate"             # threads re-home to other cores mid-run
REQUEUE = "run-queue requeue"   # cores time-multiplex run queues
RETIRE = "retire"               # threads depart at their stop_time
RETARGET = "retarget"           # trace behaviour switches mid-run
LOAD_SCALE = "load-scale"       # think times rescale mid-run
CORE_SPEEDS = "core speeds"     # per-core speed classes stretch think time
ASYM_L2 = "asymmetric L2"       # L2 domains of unequal associativity
EPOCH_PROBE = "epoch probe"     # an EpochProbe samples the run

CAPABILITIES: FrozenSet[str] = frozenset({QUOTA, MIGRATE, REQUEUE, RETIRE, RETARGET,
                                          LOAD_SCALE, CORE_SPEEDS, ASYM_L2, EPOCH_PROBE})


class Control(Protocol):
    """What an engine drives through its single control slot: it calls
    :meth:`on_step` once an issue time reaches ``next_due`` and
    :meth:`finish` at the end.  The factory first hands the hook the
    built engine through :meth:`bind_actuator`; the engine's
    ``provides`` tells the hook which actuators it may use."""

    needs: FrozenSet[str]
    next_due: int

    def on_step(self, now: int) -> None: ...

    def finish(self, final_time: int) -> None: ...

    def bind_actuator(self, engine) -> None: ...


class CompositeControl:
    """Multiplexes several epoch hooks onto an engine's control slot.

    ``next_due`` is always the earliest child deadline, and
    :meth:`on_step` dispatches only to children that are actually due
    — each keeps its own sensing cadence.  Children are dispatched in
    construction order, so placing a :class:`~repro.qos.hook.QosHook`
    before a :class:`~repro.sched.hook.SchedHook` lets quota decisions
    land before the same epoch's migrations.  The composite needs
    every capability any child needs.
    """

    def __init__(self, children: Iterable[Control]):
        self.children = list(children)
        if not self.children:
            raise ConfigurationError(
                "CompositeControl needs at least one child hook")
        self.needs = frozenset().union(
            *(child.needs for child in self.children))

    @property
    def next_due(self) -> int:
        return min(child.next_due for child in self.children)

    def on_step(self, now: int) -> None:
        for child in self.children:
            if now >= child.next_due:
                child.on_step(now)

    def bind_actuator(self, engine) -> None:
        for child in self.children:
            child.bind_actuator(engine)

    def finish(self, final_time: int) -> None:
        for child in self.children:
            child.finish(final_time)


def requeue(engine, moves: Dict[int, int], threads_by_id: Dict, now: int,
            hypervisor=None) -> Tuple[int, int]:
    """Move waiting threads (id -> core) through an engine's run-queue
    actuator and the hypervisor's bookkeeping; returns ``(applied,
    refused)``.  Ids not in ``threads_by_id`` count as neither."""
    applied = refused = 0
    for tid in sorted(moves):
        thread = threads_by_id.get(tid)
        if thread is None:
            continue
        previous = thread.core_id
        became_head = engine.rebind_thread(tid, moves[tid], now)
        if became_head is None:
            refused += 1
            continue
        if hypervisor is not None:
            hypervisor.rebind_thread(thread, moves[tid], previous=previous,
                                     bind_core=became_head)
        applied += 1
    return applied, refused
