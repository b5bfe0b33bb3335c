"""The declarative scenario model (ISSUE 10's tentpole).

A :class:`Scenario` describes a *time-varying* consolidation: a VM
roster (workload, optional cyclic phase plan, arrival/departure, and
scripted mid-run phase switches per VM) plus a :class:`LoadCurve` that
drives per-epoch think-cycle scaling.  Scenarios are declarative and
JSON-serializable — the registry (:mod:`repro.scenarios.registry`)
names them, and :class:`~repro.scenarios.hook.ScenarioHook` actuates
them at epoch boundaries through the engines' ``next_due`` control
slot.

Load semantics
--------------
``LoadCurve.load_at(cycle)`` returns an *offered-load* factor with 1.0
nominal.  The hook converts it into a think-cycle multiplier of
``1/load`` on every thread trace: load above 1.0 shrinks think times
(requests arrive faster), load below 1.0 stretches them.  A constant
curve at 1.0 never touches the traces at all, which is what makes the
byte-identity determinism guard possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..workloads.library import get_profile
from ..workloads.phases import BEHAVIOURAL_PARAMS

__all__ = [
    "LoadCurve",
    "PhaseSwitch",
    "VMSlot",
    "Scenario",
    "scenario_to_dict",
    "scenario_from_dict",
]

_CURVE_KINDS = ("constant", "diurnal", "step", "burst")

#: scenario mixes are registered under this prefix (``scn-<name>``)
MIX_PREFIX = "scn-"


@dataclass(frozen=True)
class LoadCurve:
    """A deterministic offered-load curve over simulated cycles.

    Attributes
    ----------
    kind:
        ``"constant"``, ``"diurnal"`` (sinusoidal), ``"step"``, or
        ``"burst"``.
    base:
        Baseline load factor (1.0 = the workload's calibrated think
        times).
    amplitude, period:
        Diurnal parameters: ``load = base + amplitude *
        sin(2π·cycle/period)``.
    at, level, width:
        Step/burst parameters: a step switches to ``level`` at cycle
        ``at`` forever; a burst holds ``level`` for ``width`` cycles
        starting at ``at``, then returns to ``base``.
    jitter:
        Optional per-epoch multiplicative jitter (``0.15`` = ±15%),
        drawn from the run's seeded ``"scenario"`` RNG stream by the
        hook — reproducible under a fixed seed, different across seeds.
    """

    kind: str = "constant"
    base: float = 1.0
    amplitude: float = 0.0
    period: int = 200_000
    at: int = 0
    level: float = 1.0
    width: int = 0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _CURVE_KINDS:
            raise ConfigurationError(
                f"unknown load-curve kind {self.kind!r}; "
                f"choose one of {', '.join(_CURVE_KINDS)}"
            )
        if self.base <= 0:
            raise ConfigurationError("load-curve base must be positive")
        if self.amplitude < 0:
            raise ConfigurationError(
                "load-curve amplitude must be non-negative")
        if self.kind == "diurnal":
            if self.period <= 0:
                raise ConfigurationError(
                    "a diurnal curve needs a positive period")
            if self.amplitude >= self.base:
                raise ConfigurationError(
                    "diurnal amplitude must stay below base "
                    "(load must remain positive)")
        if self.kind in ("step", "burst"):
            if self.level <= 0:
                raise ConfigurationError(
                    "step/burst level must be positive")
            if self.at < 0:
                raise ConfigurationError(
                    "step/burst onset must be non-negative")
        if self.kind == "burst" and self.width <= 0:
            raise ConfigurationError("a burst needs a positive width")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")

    @property
    def is_flat(self) -> bool:
        """True when the curve never moves load off 1.0."""
        if self.jitter:
            return False
        if self.kind == "constant":
            return self.base == 1.0
        return False

    def load_at(self, cycle: int) -> float:
        """Deterministic load factor at ``cycle`` (jitter excluded —
        the hook applies it from the seeded scenario stream)."""
        if self.kind == "constant":
            return self.base
        if self.kind == "diurnal":
            return self.base + self.amplitude * math.sin(
                2.0 * math.pi * cycle / self.period)
        if self.kind == "step":
            return self.level if cycle >= self.at else self.base
        # burst
        if self.at <= cycle < self.at + self.width:
            return self.level
        return self.base


@dataclass(frozen=True)
class PhaseSwitch:
    """A scripted behavioural switch: at cycle ``at``, retarget the
    VM's traces with ``overrides`` (behavioural parameters only — the
    same set a :class:`~repro.workloads.phases.Phase` may override)."""

    at: int
    overrides: Tuple[Tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(
                "phase switch cycle must be non-negative")
        if not self.overrides:
            raise ConfigurationError(
                "a phase switch needs at least one override")
        for param, _value in self.overrides:
            if param not in BEHAVIOURAL_PARAMS:
                raise ConfigurationError(
                    f"phase switch overrides structural or unknown "
                    f"parameter {param!r}; allowed: "
                    f"{sorted(BEHAVIOURAL_PARAMS)}"
                )


@dataclass(frozen=True)
class VMSlot:
    """One roster entry: a VM's workload and its script.

    Attributes
    ----------
    workload:
        A registered workload name (paper or scenario family).
    phase_plan:
        Optional registered cyclic phase plan
        (:mod:`repro.workloads.phases`) applied to this VM only.
    arrival, departure:
        Cycles the VM enters/leaves the machine (``None`` departure =
        runs to completion) — churn scripting on top of PR 9's
        ``vm_schedule`` machinery.
    switches:
        Scripted :class:`PhaseSwitch` entries, strictly increasing in
        time, actuated at the scenario epoch boundary at or after
        their cycle.
    """

    workload: str
    phase_plan: str = ""
    arrival: int = 0
    departure: Optional[int] = None
    switches: Tuple[PhaseSwitch, ...] = ()

    def __post_init__(self) -> None:
        get_profile(self.workload)  # validates the name
        if self.phase_plan:
            from ..workloads.phases import get_phase_plan

            get_phase_plan(self.phase_plan)  # validates the name
        if self.arrival < 0:
            raise ConfigurationError("VM arrival must be non-negative")
        if self.departure is not None and self.departure <= self.arrival:
            raise ConfigurationError(
                f"VM departure ({self.departure}) must exceed its "
                f"arrival ({self.arrival})")
        cycles = [switch.at for switch in self.switches]
        if cycles != sorted(cycles) or len(set(cycles)) != len(cycles):
            raise ConfigurationError(
                "phase switches must be strictly increasing in time")


@dataclass(frozen=True)
class Scenario:
    """A named, declarative time-varying consolidation scenario."""

    name: str
    description: str = ""
    roster: Tuple[VMSlot, ...] = ()
    curve: LoadCurve = field(default_factory=LoadCurve)
    epoch: int = 5_000

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ConfigurationError(
                "a scenario needs a non-empty, whitespace-free name")
        if not self.roster:
            raise ConfigurationError(
                "a scenario roster needs at least one VM")
        if self.epoch <= 0:
            raise ConfigurationError(
                "the scenario control epoch must be positive")

    # -- derived wiring -------------------------------------------------

    @property
    def mix_name(self) -> str:
        """The mix name scenario specs carry (``scn-<name>``)."""
        return f"{MIX_PREFIX}{self.name}"

    def to_mix(self):
        """The roster as a :class:`~repro.core.mixes.Mix`, grouping
        consecutive same-workload slots (VM order is preserved)."""
        from ..core.mixes import Mix

        components: List[List] = []
        for slot in self.roster:
            if components and components[-1][0] == slot.workload:
                components[-1][1] += 1
            else:
                components.append([slot.workload, 1])
        return Mix(self.mix_name,
                   tuple((w, n) for w, n in components))

    def start_offsets(self) -> List[int]:
        return [slot.arrival for slot in self.roster]

    def stop_times(self) -> List[Optional[int]]:
        return [slot.departure for slot in self.roster]

    def vm_phase_plans(self) -> List[Optional[tuple]]:
        """Resolved per-VM cyclic phase plans (``None`` = steady)."""
        from ..workloads.phases import get_phase_plan

        return [
            get_phase_plan(slot.phase_plan) if slot.phase_plan else None
            for slot in self.roster
        ]

    @property
    def has_churn(self) -> bool:
        return any(slot.arrival or slot.departure is not None
                   for slot in self.roster)

    @property
    def has_arrivals(self) -> bool:
        return any(slot.arrival for slot in self.roster)

    @property
    def has_departures(self) -> bool:
        return any(slot.departure is not None for slot in self.roster)

    @property
    def has_switches(self) -> bool:
        return any(slot.switches for slot in self.roster)

    @property
    def is_static(self) -> bool:
        """True when running this scenario is observationally identical
        to the equivalent static spec (flat curve, no switches, no
        churn) — the shape the byte-identity determinism guard pins."""
        return (self.curve.is_flat and not self.has_switches
                and not self.has_churn)


# ----------------------------------------------------------------------
# JSON codec (scenario files; see docs/scenarios.md for the format)
# ----------------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> Dict:
    """The JSON-friendly form of a scenario (round-trips through
    :func:`scenario_from_dict`)."""
    payload: Dict = {
        "name": scenario.name,
        "description": scenario.description,
        "epoch": scenario.epoch,
        "curve": {
            "kind": scenario.curve.kind,
            "base": scenario.curve.base,
            "amplitude": scenario.curve.amplitude,
            "period": scenario.curve.period,
            "at": scenario.curve.at,
            "level": scenario.curve.level,
            "width": scenario.curve.width,
            "jitter": scenario.curve.jitter,
        },
        "roster": [],
    }
    for slot in scenario.roster:
        entry: Dict = {"workload": slot.workload}
        if slot.phase_plan:
            entry["phase_plan"] = slot.phase_plan
        if slot.arrival:
            entry["arrival"] = slot.arrival
        if slot.departure is not None:
            entry["departure"] = slot.departure
        if slot.switches:
            entry["switches"] = [
                {"at": switch.at, "overrides": dict(switch.overrides)}
                for switch in slot.switches
            ]
        payload["roster"].append(entry)
    return payload


def scenario_from_dict(payload: Dict) -> Scenario:
    """Parse :func:`scenario_to_dict` output (or a hand-written
    scenario file) back into a :class:`Scenario`."""
    if not isinstance(payload, dict):
        raise ConfigurationError("a scenario document must be an object")
    try:
        name = payload["name"]
        roster_entries = payload["roster"]
    except KeyError as missing:
        raise ConfigurationError(
            f"scenario document is missing the {missing} field"
        ) from None
    curve_payload = dict(payload.get("curve", {}))
    unknown = set(curve_payload) - {
        "kind", "base", "amplitude", "period", "at", "level", "width",
        "jitter"}
    if unknown:
        raise ConfigurationError(
            f"unknown load-curve fields: {sorted(unknown)}")
    roster: List[VMSlot] = []
    for entry in roster_entries:
        switches = tuple(
            PhaseSwitch(
                at=int(switch["at"]),
                overrides=tuple(sorted(
                    (str(param), float(value))
                    for param, value in switch["overrides"].items()
                )),
            )
            for switch in entry.get("switches", ())
        )
        departure = entry.get("departure")
        roster.append(VMSlot(
            workload=entry["workload"],
            phase_plan=entry.get("phase_plan", ""),
            arrival=int(entry.get("arrival", 0)),
            departure=None if departure is None else int(departure),
            switches=switches,
        ))
    return Scenario(
        name=str(name),
        description=str(payload.get("description", "")),
        roster=tuple(roster),
        curve=LoadCurve(**curve_payload),
        epoch=int(payload.get("epoch", 5_000)),
    )
