"""Result analysis: replication, occupancy, locality, persistence,
and report formatting."""

from .compare import ResultComparison, VMComparison, compare_results
from .characterize import (
    ReuseProfile,
    miss_rate_at,
    reuse_distances,
    reuse_profile,
    working_set_curve,
)
from .fairness import FairnessReport, fairness_report, jains_index
from .occupancy import OccupancySnapshot, measure_occupancy
from .persist import load_result, result_from_dict, result_to_dict, save_result
from .replication import ReplicationSnapshot, measure_replication
from .report import bar, format_kv, format_series, format_table
from .scenario_report import (
    compare_scenario_policies,
    scenario_table,
    scenario_verdict,
    scenario_window_rows,
)
from .sched_report import (
    compare_sched_policies,
    policy_cells,
    sched_table,
    sched_verdict,
)
from .timeline import render_metric, sparkline, timeline_report

__all__ = [
    "ResultComparison",
    "VMComparison",
    "compare_results",
    "ReuseProfile",
    "miss_rate_at",
    "reuse_distances",
    "reuse_profile",
    "working_set_curve",
    "FairnessReport",
    "fairness_report",
    "jains_index",
    "OccupancySnapshot",
    "measure_occupancy",
    "load_result",
    "result_from_dict",
    "result_to_dict",
    "save_result",
    "compare_sched_policies",
    "policy_cells",
    "sched_table",
    "sched_verdict",
    "compare_scenario_policies",
    "scenario_table",
    "scenario_verdict",
    "scenario_window_rows",
    "ReplicationSnapshot",
    "measure_replication",
    "bar",
    "format_kv",
    "format_series",
    "format_table",
    "render_metric",
    "sparkline",
    "timeline_report",
]
