"""The consolidation framework — the paper's primary contribution."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .experiment import (ALL_POLICIES, ALL_SHARINGS, DEFAULT_SCALE,
                             ChipSummary, ExperimentResult, ExperimentSpec,
                             clear_result_cache, plan, resolve_mix,
                             run_experiment)
    from .executor import CellOutcome, SweepExecutor
    from .store import (ResultStore, StoreStats, get_default_store,
                        result_from_dict, result_to_dict, set_default_store,
                        spec_key)
    from .suite import (SUITES, ExperimentSuite, SuiteResult, SuiteRunner,
                        get_suite, mixes_suite, qos_suite, sched_suite,
                        sharing_policy_suite, suite_names)
    from .isolation import (NormalizedVM, isolation_spec, normalize_result,
                            normalized_miss_latency, normalized_miss_rate,
                            normalized_runtime, run_isolated)
    from .metrics import VMMetrics, aggregate_by_workload
    from .mixes import (HETEROGENEOUS_MIXES, HOMOGENEOUS_MIXES, MIXES, Mix,
                        get_mix, isolated_mix)
    from .scheduling import (SCHEDULER_NAMES, AffinityScheduler,
                             RandomScheduler, RoundRobinScheduler,
                             RrAffinityScheduler, SchedulingPolicy,
                             make_scheduler)
    from .variability import ReplicationSummary, replicate, seeds_for

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "experiment": ("ALL_POLICIES", "ALL_SHARINGS", "DEFAULT_SCALE",
                   "ChipSummary", "ExperimentResult", "ExperimentSpec",
                   "clear_result_cache", "plan", "resolve_mix",
                   "run_experiment"),
    "executor": ("CellOutcome", "SweepExecutor"),
    "store": ("ResultStore", "StoreStats", "get_default_store",
              "result_from_dict", "result_to_dict", "set_default_store",
              "spec_key"),
    "suite": ("SUITES", "ExperimentSuite", "SuiteResult", "SuiteRunner",
              "get_suite", "mixes_suite", "qos_suite", "sched_suite",
              "sharing_policy_suite", "suite_names"),
    "isolation": ("NormalizedVM", "isolation_spec", "normalize_result",
                  "normalized_miss_latency", "normalized_miss_rate",
                  "normalized_runtime", "run_isolated"),
    "metrics": ("VMMetrics", "aggregate_by_workload"),
    "mixes": ("HETEROGENEOUS_MIXES", "HOMOGENEOUS_MIXES", "MIXES", "Mix",
              "get_mix", "isolated_mix"),
    "scheduling": ("SCHEDULER_NAMES", "AffinityScheduler", "RandomScheduler",
                   "RoundRobinScheduler", "RrAffinityScheduler",
                   "SchedulingPolicy", "make_scheduler"),
    "variability": ("ReplicationSummary", "replicate", "seeds_for"),
})
