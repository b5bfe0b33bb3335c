"""QoS controllers: way-quota (re)partitioning policies.

A :class:`QosController` decides, at every control epoch, how each
shared L2 domain's ways are split among its resident VMs — and, on an
over-committed machine, whether any waiting thread should be re-bound
to a different core.  Controllers never touch machine state themselves:
the :class:`~repro.qos.hook.QosHook` applies their
:class:`QosDecision` through :meth:`WayQuota.set_quota
<repro.caches.partitioning.WayQuota.set_quota>` and the engine's
re-bind actuator.

Four policies ship:

``static-equal`` — :class:`StaticEqual`
    The equal split every policy starts from, frozen for the whole run
    (a do-nothing controller).  :class:`~repro.qos.hook.QosHook`
    installs that split for every policy, so quota setup has exactly
    one code path.
``missrate-prop`` — :class:`MissRateProportional`
    Ways proportional to each VM's share of the epoch's L2 misses:
    capacity flows to whoever is missing, a simple demand-follows-need
    heuristic.
``ucp`` — :class:`UcpLookahead`
    Utility-based cache partitioning: greedy marginal-utility
    (lookahead) allocation over the shadow-tag utility curves of
    :class:`~repro.qos.sensors.UtilityMonitor` (Qureshi & Patt,
    MICRO 2006).  Capacity flows to whoever can *use* it.
``target-slowdown`` — :class:`TargetSlowdown`
    A feedback controller holding every VM's estimated slowdown (vs.
    its isolated-run baseline from the
    :class:`~repro.core.store.ResultStore`) under a user-set target:
    each epoch it moves one way per domain from the VM with the most
    slack to the VM furthest over target, and on an over-committed
    machine migrates a waiting thread of the worst victim toward the
    shortest run queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..caches.partitioning import equal_quotas
from ..errors import ConfigurationError
from ..obs.probes import SensingWindow
from .sensors import UtilityMonitor

__all__ = [
    "QosView",
    "QosDecision",
    "QosController",
    "StaticEqual",
    "MissRateProportional",
    "UcpLookahead",
    "TargetSlowdown",
    "ucp_partition",
    "CONTROLLERS",
    "controller_names",
    "make_controller",
]


@dataclass(frozen=True)
class QosView:
    """Static facts a controller is given once, before the run starts."""

    assoc: int
    #: domain -> sorted resident VM ids (multi-VM shared domains only)
    domain_vms: Dict[int, List[int]]
    #: vm -> workload name
    vm_workloads: Dict[int, str]
    #: vm -> isolated-baseline cycles per issued reference (feedback
    #: controllers only; empty otherwise)
    baseline_cpr: Dict[int, float] = field(default_factory=dict)
    #: slowdown target for TargetSlowdown (0 = unset)
    target: float = 0.0


@dataclass
class QosDecision:
    """What a controller wants changed at one epoch boundary."""

    #: domain -> {vm -> ways}; omitted domains/VMs keep their quotas
    quotas: Dict[int, Dict[int, int]] = field(default_factory=dict)
    #: thread_id -> core (over-commit only; applied via the engine)
    rebinds: Dict[int, int] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.quotas and not self.rebinds


class QosController:
    """Base controller: attach once, decide every control epoch."""

    name = "base"
    #: set by controllers that need the chip's L2 access tap
    wants_l2_tap = False

    def __init__(self) -> None:
        self.view: Optional[QosView] = None

    def attach(self, view: QosView) -> None:
        self.view = view

    def monitors(self) -> Dict[int, UtilityMonitor]:
        """Per-domain utility monitors (tap-wanting controllers only)."""
        return {}

    def decide(self, window: SensingWindow) -> QosDecision:
        raise NotImplementedError


class StaticEqual(QosController):
    """Keep the setup-time equal split for the whole run."""

    name = "static-equal"

    def decide(self, window: SensingWindow) -> QosDecision:
        return QosDecision()


def _largest_remainder(weights: Dict[int, float], total: int,
                       minimum: int = 1) -> Dict[int, int]:
    """Split ``total`` integer ways by ``weights`` with a floor.

    Deterministic largest-remainder apportionment: every VM gets at
    least ``minimum``, the rest follows the weights, leftover ways go
    to the largest fractional remainders (ties to the lower VM id).
    """
    vms = sorted(weights)
    floor_total = minimum * len(vms)
    spare = total - floor_total
    if spare < 0:
        raise ConfigurationError(
            f"{len(vms)} VMs cannot each hold {minimum} of {total} ways"
        )
    weight_sum = sum(weights[vm] for vm in vms)
    if weight_sum <= 0:
        weights = {vm: 1.0 for vm in vms}
        weight_sum = float(len(vms))
    shares = {vm: spare * weights[vm] / weight_sum for vm in vms}
    out = {vm: minimum + int(shares[vm]) for vm in vms}
    leftover = total - sum(out.values())
    remainders = sorted(
        vms, key=lambda vm: (-(shares[vm] - int(shares[vm])), vm)
    )
    for vm in remainders[:leftover]:
        out[vm] += 1
    return out


class MissRateProportional(QosController):
    """Ways proportional to each VM's share of the epoch's L2 misses."""

    name = "missrate-prop"

    def decide(self, window: SensingWindow) -> QosDecision:
        decision = QosDecision()
        for domain_id, vms in self.view.domain_vms.items():
            weights = {
                vm: float(window.vms[vm].l2_misses)
                for vm in vms if vm in window.vms
            }
            if len(weights) < 2 or sum(weights.values()) == 0:
                continue  # nothing measured this epoch: hold quotas
            decision.quotas[domain_id] = _largest_remainder(
                weights, self.view.assoc
            )
        return decision


def ucp_partition(curves: Dict[int, List[int]], assoc: int,
                  min_ways: int = 1) -> Dict[int, int]:
    """Greedy marginal-utility (lookahead) way allocation.

    ``curves[vm][w-1]`` is the VM's utility (shadow hits) with ``w``
    ways.  Every VM starts at ``min_ways``; each remaining way goes to
    the VM with the largest marginal utility for its next way (ties to
    the lower VM id), which for concave curves equals UCP's lookahead
    result.
    """
    vms = sorted(curves)
    if min_ways * len(vms) > assoc:
        raise ConfigurationError(
            f"{len(vms)} VMs cannot each hold {min_ways} of {assoc} ways"
        )
    alloc = {vm: min_ways for vm in vms}
    remaining = assoc - min_ways * len(vms)

    def marginal(vm: int) -> int:
        ways = alloc[vm]
        curve = curves[vm]
        if ways >= len(curve):
            return 0
        previous = curve[ways - 1] if ways > 0 else 0
        return curve[ways] - previous

    for _ in range(remaining):
        best = max(vms, key=lambda vm: (marginal(vm), -vm))
        alloc[best] += 1
    return alloc


class UcpLookahead(QosController):
    """Utility-based repartitioning over shadow-tag miss curves."""

    name = "ucp"
    wants_l2_tap = True

    def __init__(self, sample_every: int = 8, min_accesses: int = 32):
        super().__init__()
        self.sample_every = sample_every
        #: minimum sampled accesses per domain before repartitioning
        self.min_accesses = min_accesses
        self._monitors: Dict[int, UtilityMonitor] = {}

    def attach(self, view: QosView) -> None:
        super().attach(view)
        self._monitors = {}

    def build_monitors(self, chip) -> Dict[int, UtilityMonitor]:
        """Instantiate one monitor per partitioned domain."""
        geometry = chip.config.l2_geometry()
        self._monitors = {
            domain_id: UtilityMonitor(
                domain_id, self.view.assoc, geometry.num_sets,
                sample_every=self.sample_every,
            )
            for domain_id in self.view.domain_vms
        }
        return self._monitors

    def monitors(self) -> Dict[int, UtilityMonitor]:
        return self._monitors

    def decide(self, window: SensingWindow) -> QosDecision:
        decision = QosDecision()
        for domain_id, vms in self.view.domain_vms.items():
            monitor = self._monitors.get(domain_id)
            if monitor is None:
                continue
            sampled = sum(monitor.accesses(vm) for vm in vms)
            if sampled < self.min_accesses:
                continue
            curves = {vm: monitor.utility_curve(vm) for vm in vms}
            decision.quotas[domain_id] = ucp_partition(
                curves, self.view.assoc
            )
            monitor.reset()
        return decision


class TargetSlowdown(QosController):
    """Hold every VM's slowdown under ``target`` by feedback.

    Slowdown is estimated online as the ratio of the VM's observed
    cycles-per-issued-reference (``now`` over its threads' mean issued
    count) to the isolated-run baseline the experiment runner fetched
    from the result store.  Each epoch, in every partitioned domain,
    one way moves from the VM with the most slack to the VM furthest
    over target — a deliberately small step so allocations cannot
    oscillate.  With run queues visible (over-commit), a waiting
    thread of the worst victim is migrated to the shortest queue.
    """

    name = "target-slowdown"

    def __init__(self, margin: float = 0.02):
        super().__init__()
        #: dead band around the target, as a fraction of it
        self.margin = margin
        #: vm -> last estimated slowdown (reporting)
        self.slowdowns: Dict[int, float] = {}
        self.violations = 0
        #: current quota shadow; seeded on attach, tracks our own moves
        self._ways: Dict[int, Dict[int, int]] = {}

    def attach(self, view: QosView) -> None:
        super().attach(view)
        if view.target <= 0:
            raise ConfigurationError(
                "target-slowdown needs a positive qos_target "
                "(e.g. 1.3 = at most 30% slower than isolation)"
            )
        if not view.baseline_cpr:
            raise ConfigurationError(
                "target-slowdown needs isolated baselines "
                "(baseline_cpr missing from the QosView)"
            )
        self._ways = {
            domain: dict(equal_quotas(vms, view.assoc))
            for domain, vms in view.domain_vms.items()
        }
        self.slowdowns = {}
        self.violations = 0

    def estimate_slowdowns(self, window: SensingWindow) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for vm, baseline in self.view.baseline_cpr.items():
            delta = window.vms.get(vm)
            if delta is None or delta.issued <= 0 or baseline <= 0:
                continue
            out[vm] = (window.now / delta.issued) / baseline
        return out

    def decide(self, window: SensingWindow) -> QosDecision:
        view = self.view
        slowdowns = self.estimate_slowdowns(window)
        self.slowdowns = slowdowns
        decision = QosDecision()
        over = {vm for vm, s in slowdowns.items() if s > view.target}
        if over:
            self.violations += 1
        low_band = view.target * (1.0 - self.margin)
        worst_vm = None
        worst_excess = 0.0
        for domain_id, vms in view.domain_vms.items():
            ways = self._ways[domain_id]
            victims = sorted(
                (vm for vm in vms if vm in over),
                key=lambda vm: (-slowdowns[vm], vm),
            )
            donors = sorted(
                (vm for vm in vms
                 if vm in slowdowns and slowdowns[vm] < low_band
                 and ways[vm] > 1),
                key=lambda vm: (slowdowns[vm], vm),
            )
            if not victims or not donors:
                continue
            victim, donor = victims[0], donors[0]
            if victim == donor or ways[victim] >= view.assoc:
                continue
            ways[victim] += 1
            ways[donor] -= 1
            decision.quotas[domain_id] = dict(ways)
            excess = slowdowns[victim] - view.target
            if excess > worst_excess:
                worst_excess = excess
                worst_vm = victim
        if window.queues and worst_vm is not None:
            move = self._plan_rebind(window, worst_vm)
            if move is not None:
                decision.rebinds[move[0]] = move[1]
        return decision

    @staticmethod
    def _plan_rebind(window: SensingWindow,
                     victim_vm: int) -> Optional[tuple]:
        """Move one *waiting* victim thread to the shortest queue."""
        queues, threads = window.queues, window.threads
        shortest = min(sorted(queues), key=lambda core: len(queues[core]))
        for core in sorted(queues):
            queue = queues[core]
            if core == shortest or len(queue) <= len(queues[shortest]) + 1:
                continue
            # head of the queue is the active thread: never move it
            for tid in queue[1:]:
                if threads[tid].vm_id == victim_vm:
                    return (tid, shortest)
        return None


CONTROLLERS = {
    StaticEqual.name: StaticEqual,
    MissRateProportional.name: MissRateProportional,
    UcpLookahead.name: UcpLookahead,
    TargetSlowdown.name: TargetSlowdown,
}
"""Controller registry addressable from specs and the CLI."""


def controller_names() -> List[str]:
    return sorted(CONTROLLERS)


def make_controller(name: str) -> QosController:
    """Build a controller by registry name."""
    try:
        cls = CONTROLLERS[name.strip().lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown QoS policy {name!r}; available: "
            f"{', '.join(controller_names())}"
        ) from None
    return cls()
