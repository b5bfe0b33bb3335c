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
:class:`ExperimentSpec`, :func:`plan`, and the engine
factory :func:`make_engine` / :class:`EngineRequest` (see
``docs/engines.md``).  They follow the package version: breaking
changes bump the major version and go through a deprecation cycle.
Anything importable only from a submodule is internal and may change
without notice.

Re-exported names resolve on first use: ``import repro`` (like every
subpackage import) loads no submodule, and the first read of a name
imports the module that defines it (:mod:`repro._lazy`).  The stable
set, ``__all__`` and ``from repro import *`` are what eager imports
gave; only the moment a module is loaded moved.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .core.experiment import (DEFAULT_SCALE, ExperimentResult,
                                  ExperimentSpec, clear_result_cache, plan,
                                  run_experiment)
    from .core.executor import CellOutcome, SweepExecutor
    from .core.suite import (ExperimentSuite, SuiteResult, SuiteRunner,
                             get_suite, mixes_suite, sharing_policy_suite,
                             suite_names)
    from .core.mixes import MIXES, Mix, get_mix, isolated_mix
    from .core.store import (ResultStore, get_default_store, set_default_store,
                             spec_key)
    from .core.metrics import VMMetrics
    from .core.scheduling import make_scheduler
    from .core.isolation import (normalize_result, normalized_miss_latency,
                                 normalized_miss_rate, normalized_runtime,
                                 run_isolated)
    from .core.variability import replicate
    from .errors import (CoherenceError, ConfigurationError, ReproError,
                         SchedulingError, ServiceError, SimulationError,
                         SweepError, WorkloadError)
    from .machine.chip import Chip
    from .machine.config import MachineConfig, SharingDegree
    from .obs.probes import EpochProbe
    from .obs.telemetry import NullTelemetry, Telemetry
    from .obs.series import TimeSeries
    from .obs.tracing import Tracer, export_chrome_trace
    from .qos.controllers import (QosController, controller_names,
                                  make_controller)
    from .qos.hook import QosHook
    from .qos.metrics import QosReport, qos_report
    from .service.jobs import Job, JobQueue, JobState
    from .service.scheduler import JobScheduler
    from .service.client import ServiceClient
    from .service.server import ServiceServer
    from .sim.factory import EngineRequest, engine_modes, make_engine
    from .workloads.library import WORKLOADS, get_profile, workload_names
    from .workloads.profile import WorkloadProfile
    from .workloads.calibrate import measure_workload_statistics

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "core.experiment": ("DEFAULT_SCALE", "ExperimentResult", "ExperimentSpec",
                        "clear_result_cache", "plan", "run_experiment"),
    "core.executor": ("CellOutcome", "SweepExecutor"),
    "core.suite": ("ExperimentSuite", "SuiteResult", "SuiteRunner",
                   "get_suite", "mixes_suite", "sharing_policy_suite",
                   "suite_names"),
    "core.mixes": ("MIXES", "Mix", "get_mix", "isolated_mix"),
    "core.store": ("ResultStore", "get_default_store", "set_default_store",
                   "spec_key"),
    "core.metrics": ("VMMetrics",),
    "core.scheduling": ("make_scheduler",),
    "core.isolation": ("normalize_result", "normalized_miss_latency",
                       "normalized_miss_rate", "normalized_runtime",
                       "run_isolated"),
    "core.variability": ("replicate",),
    "errors": ("CoherenceError", "ConfigurationError", "ReproError",
               "SchedulingError", "ServiceError", "SimulationError",
               "SweepError", "WorkloadError"),
    "machine.chip": ("Chip",),
    "machine.config": ("MachineConfig", "SharingDegree"),
    "obs.probes": ("EpochProbe",),
    "obs.telemetry": ("NullTelemetry", "Telemetry"),
    "obs.series": ("TimeSeries",),
    "obs.tracing": ("Tracer", "export_chrome_trace"),
    "qos.controllers": ("QosController", "controller_names",
                        "make_controller"),
    "qos.hook": ("QosHook",),
    "qos.metrics": ("QosReport", "qos_report"),
    "service.jobs": ("Job", "JobQueue", "JobState"),
    "service.scheduler": ("JobScheduler",),
    "service.client": ("ServiceClient",),
    "service.server": ("ServiceServer",),
    "sim.factory": ("EngineRequest", "engine_modes", "make_engine"),
    "workloads.library": ("WORKLOADS", "get_profile", "workload_names"),
    "workloads.profile": ("WorkloadProfile",),
    "workloads.calibrate": ("measure_workload_statistics",),
})
__all__.append("__version__")
