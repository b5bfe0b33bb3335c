"""Time-varying consolidation scenarios (ISSUE 10's subsystem).

Declarative :class:`Scenario` objects — a VM roster with arrivals,
departures, per-VM phase plans and scripted behavioural switches, plus
a load curve — actuated at epoch boundaries through the engines'
control slot by :class:`ScenarioHook`.  See ``docs/scenarios.md``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .hook import ScenarioHook
    from .model import (LoadCurve, PhaseSwitch, Scenario, VMSlot,
                        scenario_from_dict, scenario_to_dict)
    from .registry import (BUILTIN_SCENARIOS, get_scenario, load_scenario_file,
                           register_scenario, save_scenario_file,
                           scenario_names)
    from .spec import scenario_spec

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "hook": ("ScenarioHook",),
    "model": ("LoadCurve", "PhaseSwitch", "Scenario", "VMSlot",
              "scenario_from_dict", "scenario_to_dict"),
    "registry": ("BUILTIN_SCENARIOS", "get_scenario", "load_scenario_file",
                 "register_scenario", "save_scenario_file", "scenario_names"),
    "spec": ("scenario_spec",),
})
