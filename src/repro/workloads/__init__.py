"""Synthetic commercial workload models (Tables I & II)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .calibrate import (WorkloadStatistics, calibration_table,
                            count_blocks_touched, measure_workload_statistics)
    from .generator import ThreadTrace, WorkloadInstance
    from .library import (BTREE, GUPS, PAPER_WORKLOADS, SCENARIO_WORKLOADS,
                          SILO, SPECJBB, SPECWEB, TPCH, TPCW, WORKLOADS,
                          XSBENCH, get_profile, workload_names)
    from .phases import (Phase, get_phase_plan, phase_plan_names,
                         register_phase_plan)
    from .profile import WorkloadProfile
    from .sampling import PowerLawSampler, UniformSampler

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "calibrate": ("WorkloadStatistics", "calibration_table",
                  "count_blocks_touched", "measure_workload_statistics"),
    "generator": ("ThreadTrace", "WorkloadInstance"),
    "library": ("BTREE", "GUPS", "PAPER_WORKLOADS", "SCENARIO_WORKLOADS",
                "SILO", "SPECJBB", "SPECWEB", "TPCH", "TPCW", "WORKLOADS",
                "XSBENCH", "get_profile", "workload_names"),
    "phases": ("Phase", "get_phase_plan", "phase_plan_names",
               "register_phase_plan"),
    "profile": ("WorkloadProfile",),
    "sampling": ("PowerLawSampler", "UniformSampler"),
})
