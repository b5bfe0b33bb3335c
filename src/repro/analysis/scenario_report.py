"""Policy scorecards for time-varying consolidations.

The scenario subsystem (:mod:`repro.scenarios`) makes the evaluation
question of :mod:`repro.analysis.sched_report` time-varying: *under a
given load curve, churn script, and phase script, does an adaptive
policy beat the best static placement?*  This module reuses the sched
machinery wholesale — the same cells (``policy_cells``), the one
scorer (:func:`repro.qos.metrics.qos_report`, which merges the
scenario hook's actuation account into each cell), the same table and
verdict — and adds the per-window attribution of issued references
against the load curve.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.experiment import ExperimentSpec, run_experiment
from ..qos.metrics import QosReport, qos_report
from .sched_report import (
    DEFAULT_PLACEMENTS,
    policy_cells,
    sched_table,
    sched_verdict,
)

__all__ = [
    "DEFAULT_SCENARIO_POLICIES",
    "compare_scenario_policies",
    "scenario_table",
    "scenario_verdict",
    "scenario_window_rows",
]

DEFAULT_SCENARIO_POLICIES = ("static", "contention", "adaptive")
"""Policies compared on scenarios by default (``hetero`` is omitted:
scenarios run on the homogeneous machine unless the caller shapes one)."""

#: the sched table adds the LoadAdj/Switches columns for scenario cells
scenario_table = sched_table
#: the question is the same under time variation
scenario_verdict = sched_verdict


def compare_scenario_policies(
    scenario: str,
    policies: Sequence[str] = DEFAULT_SCENARIO_POLICIES,
    base: Optional[ExperimentSpec] = None,
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    use_cache: bool = True,
    telemetry=None,
) -> Dict[str, QosReport]:
    """Score every policy on one scenario.

    Mirrors :func:`~repro.analysis.sched_report.compare_sched_policies`
    over the same :func:`~repro.analysis.sched_report.policy_cells`.
    ``base`` carries machine shape, run length, seed and sharing; its
    ``mix``/``scenario`` fields are overwritten with the scenario's own.
    """
    from ..scenarios.registry import get_scenario

    scn = get_scenario(scenario)
    template = replace(base or ExperimentSpec(mix=scn.mix_name),
                       mix=scn.mix_name, scenario=scn.name)
    return {
        label: qos_report(run_experiment(spec, use_cache=use_cache,
                                         telemetry=telemetry))
        for label, spec in policy_cells(template, policies,
                                        placements).items()
    }


def scenario_window_rows(
    summary: Dict[str, object], max_rows: int = 12,
) -> Tuple[List[str], List[list]]:
    """Per-window attribution rows from a scenario hook summary
    (``result.scenario``): window span, offered load, references
    issued per VM and in total.  Long runs are evenly subsampled to
    ``max_rows``."""
    windows = list(summary.get("windows", ()))
    if max_rows and len(windows) > max_rows:
        step = len(windows) / max_rows
        windows = [windows[int(i * step)] for i in range(max_rows)]
    vm_ids = sorted(
        {vm for window in windows for vm in window.get("issued", {})},
        key=int)
    headers = ["Start", "End", "Load"] + [f"VM{vm}" for vm in vm_ids] \
        + ["Total"]
    rows: List[list] = []
    for window in windows:
        issued = window.get("issued", {})
        rows.append(
            [window["start"], window["end"], window["load"]]
            + [issued.get(vm, 0) for vm in vm_ids]
            + [sum(issued.values())]
        )
    return headers, rows
