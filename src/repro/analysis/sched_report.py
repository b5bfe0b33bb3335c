"""Scheduling-policy comparison: static placements vs. adaptive policies.

The paper evaluates four *static* placement policies and shows how much
consolidation interference each leaves on the table.  The scheduling
layer (:mod:`repro.sched`) closes the loop with adaptive policies; this
module asks the evaluation question that motivates them: *on a given
mix and machine shape, does any adaptive policy beat the best static
placement* on weighted speedup, and what does that buy or cost in
fairness?

:func:`policy_cells` expands a policy list into one spec per cell —
the ``"static"`` baseline becomes one cell per placement policy, so
"best static" means the best of the paper's four.
:func:`compare_sched_policies` runs those cells and scores each with
the one QoS scorer (:func:`repro.qos.metrics.qos_report`: weighted/
harmonic speedup, Jain fairness, worst slowdown, control account).
:func:`sched_table` folds the cells into rows for
:func:`repro.analysis.report.format_table`, and :func:`sched_verdict`
states the best-static vs. best-adaptive outcome.  The scenario
scorecard (:mod:`repro.analysis.scenario_report`) uses all four.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.experiment import ALL_POLICIES, ExperimentSpec, run_experiment
from ..qos.metrics import QosReport, qos_report

__all__ = [
    "DEFAULT_SCHED_POLICIES",
    "DEFAULT_PLACEMENTS",
    "policy_cells",
    "compare_sched_policies",
    "sched_table",
    "sched_verdict",
]

DEFAULT_SCHED_POLICIES = ("static", "contention", "adaptive", "hetero")
"""Scheduling policies compared by default."""

DEFAULT_PLACEMENTS = ALL_POLICIES
"""The paper's four static placement policies (Section III-D)."""


def policy_cells(
    template: ExperimentSpec,
    policies: Sequence[str],
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
) -> Dict[str, ExperimentSpec]:
    """Expand ``policies`` into ``{label: spec}`` cells, in order.

    ``"static"`` expands into one cell per placement in ``placements``
    (labelled ``static/<placement>``, with no scheduling hook at all —
    byte-identical to the paper's runs); every other policy is one
    cell labelled by its name, run adaptively from ``template``'s own
    initial placement.
    """
    cells: Dict[str, ExperimentSpec] = {}
    for policy in policies:
        if policy == "static":
            for placement in placements:
                cells[f"static/{placement}"] = replace(
                    template, policy=placement, sched_policy="")
        else:
            cells[policy] = replace(template, sched_policy=policy)
    return cells


def compare_sched_policies(
    mix: str,
    policies: Sequence[str] = DEFAULT_SCHED_POLICIES,
    base: Optional[ExperimentSpec] = None,
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    use_cache: bool = True,
    telemetry=None,
) -> Dict[str, QosReport]:
    """Score every scheduling policy on one mix.

    Returns ``{label: QosReport}`` over the :func:`policy_cells` of
    ``policies``.  ``base`` carries the machine shape (cores,
    over-commit, heterogeneity, churn) plus run length / seed / scale.
    A live ``telemetry`` hub (passed through to every cell) accumulates
    the ``sched.*`` counters across the adaptive cells.
    """
    template = replace(base or ExperimentSpec(mix=mix), mix=mix)
    return {
        label: qos_report(run_experiment(spec, use_cache=use_cache,
                                         telemetry=telemetry))
        for label, spec in policy_cells(template, policies,
                                        placements).items()
    }


def sched_table(
    reports: Dict[str, QosReport],
) -> Tuple[List[str], List[list]]:
    """Fold a policy scorecard into (headers, rows).

    One row per policy cell: the four scorecard metrics plus the number
    of migrations the scheduler actually applied (``-`` for static
    cells, which have no scheduling hook).  When any cell carries a
    scenario account, the scenario hook's actuation columns follow
    (identical down a column by construction — the scenario script
    does not depend on the policy — but printed per row so divergence
    would be visible).
    """
    scenario = any("scenario" in r.control for r in reports.values())
    headers = ["Policy", "WeightedSpeedup", "HarmonicSpeedup",
               "Fairness", "MaxSlowdown", "Migrations"]
    if scenario:
        headers += ["LoadAdj", "Switches"]
    rows: List[list] = []
    for label, report in reports.items():
        migrations = report.control.get("migrations")
        row = [
            label,
            round(report.weighted_speedup, 3),
            round(report.harmonic_speedup, 3),
            round(report.fairness, 3),
            round(report.max_slowdown, 3),
            "-" if migrations is None else int(migrations),
        ]
        if scenario:
            row.append(report.control.get("load_adjustments", "-"))
            row.append(report.control.get("switches_applied", "-"))
        rows.append(row)
    return headers, rows


def sched_verdict(reports: Dict[str, QosReport]) -> Dict[str, object]:
    """Best-static vs. best-adaptive comparison of one mix's cells.

    Static cells are those labelled ``static/...`` (or bare
    ``static``).  Returns a JSON-friendly dict with the winning labels,
    their weighted speedups, the adaptive-over-static speedup gain, and
    the fairness change of the winning adaptive cell relative to the
    best static one (negative = fairness regressed).
    """
    static = {label: r for label, r in reports.items()
              if label == "static" or label.startswith("static/")}
    dynamic = {label: r for label, r in reports.items()
               if label not in static}
    verdict: Dict[str, object] = {}
    if static:
        best_static = max(static, key=lambda k: static[k].weighted_speedup)
        verdict["best_static"] = best_static
        verdict["best_static_weighted_speedup"] = round(
            static[best_static].weighted_speedup, 6)
    if dynamic:
        best_dynamic = max(dynamic, key=lambda k: dynamic[k].weighted_speedup)
        verdict["best_adaptive"] = best_dynamic
        verdict["best_adaptive_weighted_speedup"] = round(
            dynamic[best_dynamic].weighted_speedup, 6)
    if static and dynamic:
        s = static[verdict["best_static"]]
        d = dynamic[verdict["best_adaptive"]]
        verdict["speedup_gain"] = round(
            d.weighted_speedup - s.weighted_speedup, 6)
        verdict["fairness_change"] = round(d.fairness - s.fairness, 6)
        verdict["adaptive_wins"] = d.weighted_speedup > s.weighted_speedup
    return verdict
