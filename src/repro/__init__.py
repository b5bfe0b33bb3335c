"""repro — a reproduction of *An Evaluation of Server Consolidation
Workloads for Multi-Core Designs* (Enright Jerger, Vantrease, Lipasti;
IISWC 2007).

The package simulates multi-threaded commercial workloads (TPC-W,
TPC-H, SPECjbb, SPECweb) consolidated on a 16-core CMP with a
configurable last-level-cache sharing degree and thread-scheduling
policy, and reproduces every table and figure of the paper's
evaluation.

Quickstart
----------
>>> from repro import ExperimentSpec, run_experiment
>>> result = run_experiment(ExperimentSpec(mix="mix5", sharing="shared-4",
...                                        policy="affinity",
...                                        measured_refs=2000))
>>> [vm.workload for vm in result.vm_metrics]
['specjbb', 'specjbb', 'tpch', 'tpch']

See ``examples/`` for full studies and ``benchmarks/`` for the
per-table/figure reproduction harness.

Stability
---------
The names re-exported here are the package's stable surface; the ones
used in every study are :func:`run_experiment`,
:class:`ExperimentSpec`, :func:`resolve_defaults`, and the engine
factory :func:`make_engine` / :class:`EngineRequest` (see
``docs/engines.md``).  They follow the package version: breaking
changes bump the major version and go through a deprecation cycle.
Anything importable only from a submodule is internal and may change
without notice.
"""

from .core import (
    DEFAULT_SCALE,
    CellOutcome,
    ExperimentResult,
    ExperimentSpec,
    ExperimentSuite,
    MIXES,
    Mix,
    ResultStore,
    SuiteResult,
    SuiteRunner,
    SweepExecutor,
    VMMetrics,
    clear_result_cache,
    get_default_store,
    get_mix,
    get_suite,
    isolated_mix,
    make_scheduler,
    mixes_suite,
    normalize_result,
    normalized_miss_latency,
    normalized_miss_rate,
    normalized_runtime,
    replicate,
    resolve_defaults,
    run_experiment,
    run_isolated,
    set_default_store,
    sharing_policy_suite,
    spec_key,
    suite_names,
    sweep,
    sweep_mixes,
    sweep_sharing_policy,
)
from .errors import (
    CheckpointError,
    CoherenceError,
    ConfigurationError,
    ReproError,
    SchedulingError,
    ServiceError,
    SimulationError,
    SweepError,
    WorkloadError,
)
from .machine import Chip, MachineConfig, SharingDegree
from .obs import (
    EpochProbe,
    NullTelemetry,
    Telemetry,
    TimeSeries,
    Tracer,
    export_chrome_trace,
)
from .qos import (
    QosController,
    QosHook,
    QosReport,
    controller_names,
    make_controller,
    qos_report,
)
from .service import (
    Job,
    JobQueue,
    JobScheduler,
    JobState,
    ServiceClient,
    ServiceServer,
)
from .sim import EngineRequest, engine_modes, make_engine, register_engine
from .workloads import (
    WORKLOADS,
    WorkloadProfile,
    get_profile,
    measure_workload_statistics,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_SCALE",
    "CellOutcome",
    "ExperimentResult",
    "ExperimentSpec",
    "ExperimentSuite",
    "MIXES",
    "Mix",
    "ResultStore",
    "SuiteResult",
    "SuiteRunner",
    "SweepExecutor",
    "VMMetrics",
    "clear_result_cache",
    "get_default_store",
    "get_mix",
    "get_suite",
    "isolated_mix",
    "make_scheduler",
    "mixes_suite",
    "normalize_result",
    "normalized_miss_latency",
    "normalized_miss_rate",
    "normalized_runtime",
    "replicate",
    "resolve_defaults",
    "run_experiment",
    "run_isolated",
    "set_default_store",
    "sharing_policy_suite",
    "spec_key",
    "suite_names",
    "sweep",
    "sweep_mixes",
    "sweep_sharing_policy",
    "EngineRequest",
    "engine_modes",
    "make_engine",
    "register_engine",
    "SweepError",
    "CheckpointError",
    "CoherenceError",
    "ConfigurationError",
    "ReproError",
    "SchedulingError",
    "SimulationError",
    "WorkloadError",
    "Chip",
    "MachineConfig",
    "SharingDegree",
    "EpochProbe",
    "NullTelemetry",
    "Telemetry",
    "TimeSeries",
    "Tracer",
    "export_chrome_trace",
    "Job",
    "JobQueue",
    "JobScheduler",
    "JobState",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "QosController",
    "QosHook",
    "QosReport",
    "controller_names",
    "make_controller",
    "qos_report",
    "WORKLOADS",
    "WorkloadProfile",
    "get_profile",
    "measure_workload_statistics",
    "workload_names",
    "__version__",
]
