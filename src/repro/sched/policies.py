"""Scheduling policies: static baseline and three adaptive schedulers.

The paper evaluates four *static* thread-to-core assignment policies
(Section V); this module adds the dynamic layer its Section VII
interference findings motivate.  A :class:`Scheduler` is consulted at
every control epoch with a :class:`~repro.obs.probes.SensingWindow`
and answers with a :class:`SchedDecision` — a (possibly empty) set of
thread migrations.  Policies only *propose*; the
:class:`~repro.sched.hook.SchedHook` validates and actuates through
the engine, charging the migration cost.

Four policies ship in the registry:

``static``
    The do-nothing baseline: initial placement comes from the paper's
    policy named in ``ExperimentSpec.policy``, and no thread ever
    moves.  Byte-identical to a run without a scheduler.
``contention``
    :class:`ContentionAwareMigration` — move the most cache-starved
    thread off the most contended L2 domain, with hysteresis and a
    per-thread cooldown so placements settle instead of oscillating.
``adaptive``
    :class:`AdaptiveAllocation` — feedback vCPU↔core allocation under
    over-commit (in the spirit of arXiv 2310.14741): waiting threads
    drain from long run queues onto idle or lightly-loaded cores,
    fastest cores first.
``hetero``
    :class:`HeteroAware` — on machines with per-core speed classes,
    keep the most miss-latency-bound threads (the stragglers that
    gate their VM's completion) on the fastest cores.

All policies are deterministic: rankings break ties on thread/core
ids, so a fixed spec and seed reproduce the same migration history.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..obs.probes import Delta, SensingWindow

__all__ = [
    "SchedDecision",
    "SchedView",
    "Scheduler",
    "StaticPlacement",
    "ContentionAwareMigration",
    "AdaptiveAllocation",
    "HeteroAware",
    "SCHED_POLICIES",
    "SCHED_POLICY_NAMES",
    "make_sched_policy",
]


class SchedDecision:
    """What a policy wants done at one control epoch."""

    __slots__ = ("migrations",)

    def __init__(self, migrations: Optional[Dict[int, int]] = None):
        #: thread id -> destination core (swaps name both parties)
        self.migrations: Dict[int, int] = dict(migrations or {})

    def __bool__(self) -> bool:
        return bool(self.migrations)


class SchedView:
    """Static machine facts a policy may consult (set once at attach)."""

    __slots__ = ("num_cores", "slots_per_core", "domain_of_core",
                 "inverse_speeds", "rng")

    def __init__(self, num_cores: int, slots_per_core: int = 1,
                 domain_of_core: Optional[List[int]] = None,
                 inverse_speeds: Optional[Tuple[float, ...]] = None,
                 rng=None):
        self.num_cores = num_cores
        self.slots_per_core = slots_per_core
        self.domain_of_core = domain_of_core
        #: per-core think multipliers (1/speed), or ``None`` when the
        #: machine is homogeneous
        self.inverse_speeds = inverse_speeds
        #: seeded stream for stochastic policies; the shipped policies
        #: are deterministic and leave it untouched
        self.rng = rng

    def core_speed(self, core: int) -> float:
        if self.inverse_speeds is None:
            return 1.0
        return 1.0 / self.inverse_speeds[core]


class Scheduler:
    """Interface every scheduling policy implements."""

    name = "?"

    def __init__(self) -> None:
        self.view: Optional[SchedView] = None

    def attach(self, view: SchedView) -> None:
        self.view = view

    def decide(self, window: SensingWindow) -> SchedDecision:
        raise NotImplementedError


class StaticPlacement(Scheduler):
    """The paper's static placement, wrapped as a (no-op) scheduler."""

    name = "static"

    def decide(self, window: SensingWindow) -> SchedDecision:
        return SchedDecision()


def _occupied_cores(window: SensingWindow) -> Dict[int, List[int]]:
    """Core -> resident thread ids, preferring the live run queues."""
    if window.queues is not None:
        return {core: list(q) for core, q in window.queues.items() if q}
    occupied: Dict[int, List[int]] = {}
    for delta in window.threads.values():
        occupied.setdefault(delta.core_id, []).append(delta.thread_id)
    return occupied


class ContentionAwareMigration(Scheduler):
    """Migrate the most cache-starved thread off the hottest L2 domain.

    Each epoch the policy ranks domains by
    :meth:`~repro.obs.probes.SensingWindow.domain_pressure` and, when
    the hottest exceeds the coolest by the ``hysteresis`` margin,
    moves the hottest domain's most cache-starved thread (highest L2
    miss rate in the window) toward the coolest domain: onto an idle
    core when one exists, otherwise by swapping with that domain's
    least cache-needy thread.  A per-thread ``cooldown`` (in epochs)
    stops placements from oscillating, and the hook charges every move
    a migration cost — the policy must win back more than it spends.
    """

    name = "contention"

    def __init__(self, hysteresis: float = 0.25, cooldown: int = 3):
        super().__init__()
        if hysteresis < 0:
            raise ConfigurationError("hysteresis must be non-negative")
        if cooldown < 0:
            raise ConfigurationError("cooldown must be non-negative")
        self.hysteresis = hysteresis
        self.cooldown = cooldown
        self._epoch = 0
        self._last_moved: Dict[int, int] = {}

    def _cooled(self, tid: int) -> bool:
        last = self._last_moved.get(tid)
        return last is None or self._epoch - last > self.cooldown

    def decide(self, window: SensingWindow) -> SchedDecision:
        self._epoch += 1
        mapping = window.domain_of_core
        if mapping is None:
            return SchedDecision()
        domains = sorted(set(mapping))
        if len(domains) < 2:
            return SchedDecision()

        pressure = {d: window.domain_pressure(d) for d in domains}
        hot = max(domains, key=lambda d: (pressure[d], -d))
        cool = min(domains, key=lambda d: (pressure[d], d))
        if hot == cool:
            return SchedDecision()
        if pressure[hot] <= pressure[cool] * (1.0 + self.hysteresis):
            return SchedDecision()

        waiting = None
        if (self.view is not None and self.view.slots_per_core > 1
                and window.queues is not None):
            # over-commit: only waiting threads can move
            waiting = {tid for q in window.queues.values()
                       for tid in q[1:]}
        victims = [d for d in window.threads_on_domain(hot)
                   if d.refs and self._cooled(d.thread_id)
                   and (waiting is None or d.thread_id in waiting)]
        if not victims:
            return SchedDecision()
        victim = max(victims,
                     key=lambda d: (d.miss_rate, d.stall_per_ref,
                                    -d.thread_id))

        occupied = _occupied_cores(window)
        cool_cores = sorted(c for c in range(len(mapping))
                            if mapping[c] == cool)
        idle = [c for c in cool_cores if not occupied.get(c)]
        moves: Dict[int, int] = {}
        overcommitted = self.view is not None and self.view.slots_per_core > 1
        if idle:
            moves[victim.thread_id] = idle[0]
        elif overcommitted:
            # over-commit: join the shortest run queue on the cool
            # domain (the engine refuses moves of running threads)
            target = min(cool_cores,
                         key=lambda c: (len(occupied.get(c, [])), c))
            moves[victim.thread_id] = target
        else:
            # single-slot, fully packed chip: swap with the cool
            # domain's least cache-needy thread
            partners = [d for d in window.threads_on_domain(cool)
                        if self._cooled(d.thread_id)
                        and d.thread_id != victim.thread_id]
            if not partners:
                return SchedDecision()
            partner = min(partners,
                          key=lambda d: (d.miss_rate, d.stall_per_ref,
                                         d.thread_id))
            if partner.miss_rate >= victim.miss_rate:
                return SchedDecision()
            moves[victim.thread_id] = partner.core_id
            moves[partner.thread_id] = victim.core_id

        for tid in moves:
            self._last_moved[tid] = self._epoch
        return SchedDecision(moves)


class AdaptiveAllocation(Scheduler):
    """Feedback vCPU↔core allocation under over-commit.

    Static placements can stack several threads on one core while
    other cores idle (the expanded-placement packing the over-commit
    scheduler produces).  Each epoch this policy compares run-queue
    lengths and drains *waiting* threads from the longest queues onto
    the shortest ones — preferring fast cores on heterogeneous chips —
    whenever the imbalance is at least ``imbalance`` threads.  Once
    queues are level the policy goes quiet: the allocation has
    converged, and the hysteresis keeps it there.

    Without an over-commit actuator (single-slot runs) every queue
    holds one thread and the policy is a no-op by construction.
    """

    name = "adaptive"

    def __init__(self, imbalance: int = 2, max_moves: Optional[int] = None):
        super().__init__()
        if imbalance < 1:
            raise ConfigurationError("imbalance must be >= 1")
        self.imbalance = imbalance
        self.max_moves = max_moves

    def decide(self, window: SensingWindow) -> SchedDecision:
        if window.queues is None or self.view is None:
            return SchedDecision()
        load: Dict[int, List[int]] = {
            core: list(window.queues.get(core, []))
            for core in range(self.view.num_cores)
        }

        def speed(core: int) -> float:
            return self.view.core_speed(core)

        moves: Dict[int, int] = {}
        budget = (self.max_moves if self.max_moves is not None
                  else self.view.num_cores)
        while len(moves) < budget:
            busiest = max(sorted(load), key=lambda c: len(load[c]))
            # fastest idle core first, then shortest queue
            idlest = min(sorted(load),
                         key=lambda c: (len(load[c]), -speed(c), c))
            if len(load[busiest]) - len(load[idlest]) < self.imbalance:
                break
            # move from the tail: the head is the running thread
            tid = load[busiest].pop()
            load[idlest].append(tid)
            moves[tid] = idlest
        return SchedDecision(moves)


class HeteroAware(Scheduler):
    """Keep miss-latency-bound stragglers on the fastest cores.

    On a chip with per-core speed classes, whichever thread finishes
    its measured window last gates its VM's completion.  Each epoch
    this policy ranks active threads by their per-reference cost in
    the window (stall + compute cycles: the threads furthest behind)
    and repairs the worst "inversion" — a costly thread on a slow core
    while a cheap thread holds a fast one — by swapping the pair, or
    by moving the costly thread to an idle faster core.  The ``margin``
    hysteresis ignores inversions too small to win back the migration
    charge.  On homogeneous machines the policy is a no-op.
    """

    name = "hetero"

    def __init__(self, margin: float = 0.15, cooldown: int = 3):
        super().__init__()
        if margin < 0:
            raise ConfigurationError("margin must be non-negative")
        if cooldown < 0:
            raise ConfigurationError("cooldown must be non-negative")
        self.margin = margin
        self.cooldown = cooldown
        self._epoch = 0
        self._last_moved: Dict[int, int] = {}

    def _cooled(self, tid: int) -> bool:
        last = self._last_moved.get(tid)
        return last is None or self._epoch - last > self.cooldown

    @staticmethod
    def _cost(delta: Delta) -> float:
        return delta.stall_per_ref + delta.think_per_ref

    def decide(self, window: SensingWindow) -> SchedDecision:
        self._epoch += 1
        view = self.view
        if view is None or view.inverse_speeds is None:
            return SchedDecision()
        waiting = None
        if view.slots_per_core > 1 and window.queues is not None:
            # over-commit: only waiting threads can move
            waiting = {tid for q in window.queues.values()
                       for tid in q[1:]}
        active = [d for d in window.threads.values()
                  if d.refs and self._cooled(d.thread_id)
                  and (waiting is None or d.thread_id in waiting)]
        if not active:
            return SchedDecision()

        costly = max(active, key=lambda d: (self._cost(d), -d.thread_id))
        my_speed = view.core_speed(costly.core_id)
        occupied = _occupied_cores(window)
        idle_faster = [c for c in range(view.num_cores)
                       if not occupied.get(c)
                       and view.core_speed(c) > my_speed]
        if idle_faster:
            target = max(idle_faster,
                         key=lambda c: (view.core_speed(c), -c))
            self._last_moved[costly.thread_id] = self._epoch
            return SchedDecision({costly.thread_id: target})

        if view.slots_per_core > 1:
            # over-commit, no idle fast core: nothing cheap to do
            return SchedDecision()

        # single-slot swap with the cheapest thread on a faster core
        partners = [d for d in active
                    if view.core_speed(d.core_id)
                    > my_speed * (1.0 + self.margin)]
        if not partners:
            return SchedDecision()
        partner = min(partners,
                      key=lambda d: (self._cost(d), d.thread_id))
        if self._cost(partner) * (1.0 + self.margin) >= self._cost(costly):
            return SchedDecision()
        moves = {costly.thread_id: partner.core_id,
                 partner.thread_id: costly.core_id}
        for tid in moves:
            self._last_moved[tid] = self._epoch
        return SchedDecision(moves)


SCHED_POLICIES: Dict[str, Callable[[], Scheduler]] = {
    StaticPlacement.name: StaticPlacement,
    ContentionAwareMigration.name: ContentionAwareMigration,
    AdaptiveAllocation.name: AdaptiveAllocation,
    HeteroAware.name: HeteroAware,
}
"""Scheduler registry addressable from specs and the CLI."""

_ALIASES = {
    "static-placement": "static",
    "contention-aware": "contention",
    "contention-aware-migration": "contention",
    "adaptive-allocation": "adaptive",
    "hetero-aware": "hetero",
    "heterogeneous": "hetero",
}

SCHED_POLICY_NAMES: Tuple[str, ...] = tuple(sorted(SCHED_POLICIES))


def make_sched_policy(name: str) -> Scheduler:
    """Instantiate a scheduling policy by (possibly aliased) name."""
    normalized = name.strip().lower().replace("_", "-")
    normalized = _ALIASES.get(normalized, normalized)
    try:
        factory = SCHED_POLICIES[normalized]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduling policy {name!r}; choose from "
            f"{', '.join(SCHED_POLICY_NAMES)}"
        ) from None
    return factory()
