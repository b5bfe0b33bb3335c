"""Dynamic cache QoS: sensors, controllers, actuation, scorecards.

The consolidation paper's conclusion asks for performance isolation
between co-scheduled VMs.  This package answers with a static equal way
split (``static-equal``) and closes the loop beyond it: UMON-style
shadow-tag sensing (:mod:`~repro.qos.sensors`), pluggable partitioning
policies (:mod:`~repro.qos.controllers`), epoch-boundary actuation
inside the engines (:mod:`~repro.qos.hook`), and QoS scorecards
(:mod:`~repro.qos.metrics`).  Select a policy with
``ExperimentSpec(qos_policy="ucp")`` or ``repro qos --policy ucp``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .controllers import (CONTROLLERS, MissRateProportional, QosController,
                              QosDecision, QosView, StaticEqual,
                              TargetSlowdown, UcpLookahead, controller_names,
                              make_controller, ucp_partition)
    from .hook import QosHook
    from .metrics import (QosReport, harmonic_speedup, jains_index,
                          per_vm_slowdowns, qos_report, weighted_speedup)
    from .sensors import UtilityMonitor

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "controllers": ("CONTROLLERS", "MissRateProportional", "QosController",
                    "QosDecision", "QosView", "StaticEqual", "TargetSlowdown",
                    "UcpLookahead", "controller_names", "make_controller",
                    "ucp_partition"),
    "hook": ("QosHook",),
    "metrics": ("QosReport", "harmonic_speedup", "jains_index",
                "per_vm_slowdowns", "qos_report", "weighted_speedup"),
    "sensors": ("UtilityMonitor",),
})
