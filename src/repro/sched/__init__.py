"""Adaptive, contention-aware scheduling on top of the paper's model.

The paper fixes thread placement at launch (its four static policies)
and measures the consolidation interference that results.  This
package closes the loop: a registry of scheduling policies that read
the observability layer's per-epoch sensing window
(:class:`repro.obs.probes.SensingWindow`), from the do-nothing static
baseline to contention-aware migration, adaptive over-commit
allocation, and heterogeneity-aware placement
(:mod:`repro.sched.policies`), and the engine-side actuation hook
that applies migrations with an explicit cost charge
(:mod:`repro.sched.hook`).

Select a policy per experiment with ``ExperimentSpec.sched_policy`` /
``sched_epoch``; compare policies with the ``repro sched`` CLI
command backed by :mod:`repro.analysis.sched_report`.  See
``docs/scheduling.md`` for the model.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .hook import CompositeControl, SchedHook
    from .policies import (SCHED_POLICIES, SCHED_POLICY_NAMES,
                           AdaptiveAllocation, ContentionAwareMigration,
                           HeteroAware, SchedDecision, Scheduler, SchedView,
                           StaticPlacement, make_sched_policy)

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "hook": ("CompositeControl", "SchedHook"),
    "policies": ("SCHED_POLICIES", "SCHED_POLICY_NAMES", "AdaptiveAllocation",
                 "ContentionAwareMigration", "HeteroAware", "SchedDecision",
                 "Scheduler", "SchedView", "StaticPlacement",
                 "make_sched_policy")
})
