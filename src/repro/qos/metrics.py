"""QoS metrics: multi-programmed speedups, fairness, target violations.

The consolidation literature summarizes a multi-programmed run with
throughput *and* fairness numbers derived from per-VM slowdowns
(cycles relative to each workload's isolation run):

* **weighted speedup** ``sum(1 / slowdown_i)`` — aggregate throughput
  in "isolation-equivalent VMs"; equals N when nobody is slowed.
* **harmonic mean of speedups** ``N / sum(slowdown_i)`` — balances
  throughput against fairness (Luo et al.); dominated by the worst VM.
* **Jain's fairness index** over slowdowns — 1.0 when the pain is
  evenly spread, approaching ``1/N`` as one VM absorbs all of it.

:func:`qos_report` folds these plus the run's control account (from
``result.sched``/``result.qos``/``result.scenario``, filled by
:func:`repro.core.experiment.run_experiment`) into one :class:`QosReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.experiment import ExperimentResult
from ..core.isolation import normalized_runtime
from ..errors import ReproError

__all__ = [
    "per_vm_slowdowns",
    "weighted_speedup",
    "harmonic_speedup",
    "jains_index",
    "QosReport",
    "qos_report",
]


def per_vm_slowdowns(result: ExperimentResult) -> Dict[int, float]:
    """``vm_id -> cycles / isolated cycles`` (baselines come memoized
    from the result store)."""
    return {
        vm.vm_id: normalized_runtime(vm, result.spec)
        for vm in result.vm_metrics
    }


def weighted_speedup(slowdowns: Dict[int, float]) -> float:
    """Sum of per-VM speedups vs. isolation (``sum(1/slowdown)``)."""
    if not slowdowns:
        raise ReproError("weighted_speedup needs at least one VM")
    return sum(1.0 / s for s in slowdowns.values() if s > 0)


def harmonic_speedup(slowdowns: Dict[int, float]) -> float:
    """Harmonic mean of per-VM speedups (``N / sum(slowdown)``)."""
    if not slowdowns:
        raise ReproError("harmonic_speedup needs at least one VM")
    total = sum(slowdowns.values())
    return len(slowdowns) / total if total else 0.0


def jains_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 = perfectly equal; ``1/n`` = maximally concentrated.
    """
    values = list(values)
    if not values:
        raise ReproError("jains_index needs at least one value")
    if any(v < 0 for v in values):
        raise ReproError("jains_index is defined for non-negative values")
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass(frozen=True)
class QosReport:
    """One run's QoS scorecard."""

    policy: str
    slowdowns: Dict[int, float]  # vm_id -> slowdown vs. isolation
    workloads: Dict[int, str]
    target: float = 0.0
    #: control account picked by :func:`qos_report` (empty for plain runs)
    control: Dict[str, object] = field(default_factory=dict)

    @property
    def weighted_speedup(self) -> float:
        return weighted_speedup(self.slowdowns)

    @property
    def harmonic_speedup(self) -> float:
        return harmonic_speedup(self.slowdowns)

    @property
    def fairness(self) -> float:
        return jains_index(list(self.slowdowns.values()))

    @property
    def max_slowdown(self) -> float:
        return max(self.slowdowns.values())

    @property
    def violation_epochs(self) -> int:
        return int(self.control.get("violation_epochs", 0))

    @property
    def violating_vms(self) -> List[int]:
        """VMs whose *final* slowdown exceeds the target (if set)."""
        if self.target <= 0:
            return []
        return sorted(
            vm for vm, s in self.slowdowns.items() if s > self.target
        )

    def rows(self) -> List[list]:
        """Per-VM table rows for the CLI."""
        out = []
        for vm_id in sorted(self.slowdowns):
            row = [f"vm{vm_id}", self.workloads[vm_id],
                   self.slowdowns[vm_id]]
            if self.target > 0:
                row.append(
                    "over" if self.slowdowns[vm_id] > self.target else "ok"
                )
            out.append(row)
        return out

    def to_dict(self) -> dict:
        """JSON-friendly form (CLI ``--json`` / report artifacts)."""
        out = {
            "policy": self.policy,
            "slowdowns": {str(vm): round(s, 6)
                          for vm, s in sorted(self.slowdowns.items())},
            "workloads": {str(vm): w
                          for vm, w in sorted(self.workloads.items())},
            "weighted_speedup": round(self.weighted_speedup, 6),
            "harmonic_speedup": round(self.harmonic_speedup, 6),
            "fairness": round(self.fairness, 6),
            "max_slowdown": round(self.max_slowdown, 6),
        }
        if self.target > 0:
            out["target"] = self.target
            out["violating_vms"] = self.violating_vms
        if self.control:
            out["control"] = dict(self.control)
        return out


def qos_report(result: ExperimentResult,
               target: Optional[float] = None) -> QosReport:
    """Score one run: slowdowns, speedups, fairness, violations.

    The one scorer of every scorecard; it works on *any* result.  The
    ``control`` account is ``result.sched`` when the run had a
    scheduler, else ``result.qos`` (empty for plain runs), with a
    scenario's actuation fields and per-window attribution merged in.
    """
    control = dict(result.sched or result.qos or {})
    if result.scenario:
        scenario = result.scenario
        control["scenario"] = scenario.get("scenario")
        control["scenario_epochs"] = scenario.get("control_epochs")
        control["load_adjustments"] = scenario.get("load_adjustments")
        control["switches_applied"] = scenario.get("switches_applied")
        # rides along for JSON scorecards and scenario_window_rows
        control["windows"] = scenario.get("windows", [])
    policy = str(control.get("policy", "")) or "none"
    if target is None:
        target = float(control.get("target", 0.0) or
                       getattr(result.spec, "qos_target", 0.0))
    return QosReport(
        policy=policy,
        slowdowns=per_vm_slowdowns(result),
        workloads={vm.vm_id: vm.workload for vm in result.vm_metrics},
        target=target,
        control=control,
    )
