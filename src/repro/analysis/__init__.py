"""Result analysis: replication, occupancy, locality, persistence,
and report formatting."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .compare import ResultComparison, VMComparison, compare_results
    from .characterize import (ReuseProfile, miss_rate_at, reuse_distances,
                               reuse_profile, working_set_curve)
    from .occupancy import OccupancySnapshot, measure_occupancy
    from .persist import (load_result, result_from_dict, result_to_dict,
                          save_result)
    from .replication import ReplicationSnapshot, measure_replication
    from .report import bar, format_kv, format_series, format_table
    from .scenario_report import (compare_scenario_policies, scenario_table,
                                  scenario_verdict, scenario_window_rows)
    from .sched_report import (compare_sched_policies, policy_cells,
                               sched_table, sched_verdict)
    from .timeline import render_metric, sparkline, timeline_report

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "compare": ("ResultComparison", "VMComparison", "compare_results"),
    "characterize": ("ReuseProfile", "miss_rate_at", "reuse_distances",
                     "reuse_profile", "working_set_curve"),
    "occupancy": ("OccupancySnapshot", "measure_occupancy"),
    "persist": ("load_result", "result_from_dict", "result_to_dict",
                "save_result"),
    "replication": ("ReplicationSnapshot", "measure_replication"),
    "report": ("bar", "format_kv", "format_series", "format_table"),
    "scenario_report": ("compare_scenario_policies", "scenario_table",
                        "scenario_verdict", "scenario_window_rows"),
    "sched_report": ("compare_sched_policies", "policy_cells", "sched_table",
                     "sched_verdict"),
    "timeline": ("render_metric", "sparkline", "timeline_report"),
})
