"""Cross-policy QoS comparison over the Table IV mixes.

The paper's conclusion argues consolidation needs performance
isolation; :mod:`repro.qos` supplies the mechanisms.  This module asks
the resulting evaluation question: *for each workload mix, what does
each partitioning policy cost or buy* in throughput (weighted
speedup), balance (harmonic speedup, Jain fairness), and worst-case
per-VM slowdown?

:func:`compare_policies` runs (or fetches from the store) one fully
shared-L2 experiment per (mix, policy) cell and scores each with
:func:`repro.qos.metrics.qos_report`; :func:`policy_table` folds the
grid into rows ready for :func:`repro.analysis.report.format_table`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.experiment import ExperimentSpec, run_experiment

if TYPE_CHECKING:  # imported lazily at runtime: repro.qos.metrics
    # imports this package back for jains_index, so a module-level
    # import here would be circular
    from ..qos.metrics import QosReport

__all__ = [
    "DEFAULT_POLICIES",
    "compare_policies",
    "policy_table",
]

DEFAULT_POLICIES = ("", "static-equal", "missrate-prop", "ucp")
"""Policies compared by default; ``""`` is the uncontrolled run."""

#: the scorecard attributes a table can show
_METRICS = ("weighted_speedup", "harmonic_speedup", "fairness",
            "max_slowdown")


def compare_policies(
    mixes: Sequence[str],
    policies: Sequence[str] = DEFAULT_POLICIES,
    base: Optional[ExperimentSpec] = None,
    use_cache: bool = True,
) -> Dict[Tuple[str, str], QosReport]:
    """Score every (mix, policy) cell on a fully shared L2.

    Returns ``{(mix, policy): QosReport}``.  ``base`` carries run
    length / seed / scale; its sharing is forced to ``"shared"`` so the
    policies actually arbitrate a contended domain, and the legacy
    ``l2_vm_quota`` flag is cleared (the QoS layer owns quotas here).
    """
    from ..qos.metrics import qos_report

    template = base or ExperimentSpec(mix=mixes[0])
    out: Dict[Tuple[str, str], "QosReport"] = {}
    for mix in mixes:
        for policy in policies:
            spec = replace(
                template, mix=mix, sharing="shared",
                l2_vm_quota=False, qos_policy=policy,
            )
            result = run_experiment(spec, use_cache=use_cache)
            out[(mix, policy)] = qos_report(result)
    return out


def policy_table(
    reports: Dict[Tuple[str, str], QosReport],
    metric: str = "weighted_speedup",
) -> Tuple[List[str], List[list]]:
    """Fold :func:`compare_policies` output into (headers, rows).

    One row per mix, one column per policy, cells holding ``metric``
    (any of ``weighted_speedup``, ``harmonic_speedup``, ``fairness``,
    ``max_slowdown``) rounded for display.
    """
    if metric not in _METRICS:
        raise ValueError(
            f"unknown metric {metric!r}; choose one of {sorted(_METRICS)}")
    mixes: List[str] = []
    policies: List[str] = []
    for mix, policy in reports:
        if mix not in mixes:
            mixes.append(mix)
        if policy not in policies:
            policies.append(policy)
    headers = ["Mix"] + [policy or "uncontrolled" for policy in policies]
    rows = []
    for mix in mixes:
        row: list = [mix]
        for policy in policies:
            report = reports.get((mix, policy))
            row.append(
                round(getattr(report, metric), 3)
                if report is not None else "-"
            )
        rows.append(row)
    return headers, rows
