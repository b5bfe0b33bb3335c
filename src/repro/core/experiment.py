"""Experiment specification and runner — the library's main entry point.

One :class:`ExperimentSpec` names everything the paper varies: the
workload mix (Table IV), the L2 sharing degree (Section III), the
scheduling policy (Section III-D), plus seed and run length.
:func:`run_experiment` builds the machine, launches the hypervisor,
drives the engine, and returns an :class:`ExperimentResult` with the
paper's three per-VM metrics and end-of-run cache snapshots.

Scaled simulation
-----------------
``scale`` shrinks every cache capacity *and* every workload footprint
by the same factor (default 1/16).  The paper's phenomena — capacity
pressure, replication, sharing, interference — depend on the ratio of
footprint to capacity, which scaling preserves, while letting a run
reach steady state within a few tens of thousands of references per
thread.  ``scale=1.0`` gives the full-size machine of Table III.

Environment knobs (removed)
---------------------------
The deprecated ``REPRO_REFS`` / ``REPRO_SEED`` environment knobs have
been retired: a set variable now raises
:class:`~repro.errors.ConfigurationError` from :func:`plan` instead of
silently steering defaults.  Set
``ExperimentSpec.measured_refs`` / ``ExperimentSpec.seed`` explicitly.

Engine selection
----------------
``ExperimentSpec.engine_mode`` selects the execution kernel through
:func:`repro.sim.factory.make_engine`: ``"reference"`` (the
event-driven engines, the default), ``"batched"`` (the epoch-folded
fast kernel, see ``docs/engines.md``), or ``"auto"`` (batched whenever
it provides every capability the run needs, see :mod:`repro.control`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, Optional,
                    Sequence, Set, Tuple)

from ..caches.replacement import make_policy
from ..coherence.directory import DirectoryCache
from ..control import RETIRE
from ..errors import ConfigurationError
from ..machine.chip import Chip
from ..machine.config import (
    MachineConfig,
    SharingDegree,
    parse_core_speeds,
    parse_domain_assoc,
)
from ..obs import (NULL_TELEMETRY, EpochProbe, series_from_dict,
                   series_to_dict)
from ..sim.factory import (EngineRequest, check_provides, engine_class,
                           make_engine, resolve_mode, run_needs)
from ..sim.rng import RngFactory
from ..vm.hypervisor import Hypervisor
from ..workloads.profile import WorkloadProfile
from .metrics import VMMetrics
from .mixes import Mix, get_mix, isolated_mix
from .scheduling import assign_overcommitted, make_scheduler

if TYPE_CHECKING:  # lazy at runtime: scenarios import this module
    from ..scenarios.model import Scenario

__all__ = [
    "DEFAULT_SCALE",
    "DEFAULT_MEASURED_REFS",
    "DEFAULT_SEED",
    "ALL_SHARINGS",
    "ALL_POLICIES",
    "ExperimentSpec",
    "spec_from_dict",
    "RunPlan",
    "plan",
    "ChipSummary",
    "ExperimentResult",
    "resolve_mix",
    "run_experiment",
    "clear_result_cache",
]

DEFAULT_SCALE = 1.0 / 16.0
"""Default capacity/footprint scale factor (see the module docstring)."""

DEFAULT_MEASURED_REFS = 24000
"""Built-in default for ``measured_refs`` when the spec leaves it
unset."""

DEFAULT_SEED = 1
"""Built-in default experiment seed."""

ALL_SHARINGS: Tuple[str, ...] = (
    "private", "shared-2", "shared-4", "shared-8", "shared",
)
"""The paper's L2 sharing degrees (``ExperimentSpec.sharing``)."""

ALL_POLICIES: Tuple[str, ...] = ("rr", "affinity", "rr-aff", "random")
"""The paper's four thread placements (``ExperimentSpec.policy``,
Section III-D)."""


def _env_default(var: str, fallback: int, field_name: str) -> int:
    """The built-in default of one defaulted field, rejecting the
    removed environment knob that used to supply it."""
    if os.environ.get(var) is not None:
        raise ConfigurationError(
            f"the {var} environment variable has been removed; set "
            f"ExperimentSpec.{field_name} explicitly (it previously "
            f"supplied the default for defaulted specs)"
        )
    return fallback


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation's complete description.

    Attributes
    ----------
    mix:
        A Table IV mix name (``"mix1"``..``"mix9"``, ``"mixA"``..
        ``"mixD"``) or ``"iso-<workload>"`` for an isolation run.
    sharing:
        ``"private"``, ``"shared-2"``, ``"shared-4"``, ``"shared-8"``,
        or ``"shared"``.
    policy:
        ``"rr"``, ``"affinity"``, ``"rr-aff"``, or ``"random"``.
    seed:
        Experiment seed; 0 (the default) resolves to the built-in seed
        1 (``DEFAULT_SEED``).
    measured_refs, warmup_refs:
        Per-thread measurement window; ``None`` resolves to the
        built-in defaults: 24000 measured refs
        (``DEFAULT_MEASURED_REFS``) and a warm-up of half the measured
        count.
    scale:
        Capacity/footprint scale factor.
    l2_replacement:
        L2 replacement policy (``"lru"`` default; ``"random"`` and
        ``"fifo"`` for the ablation benches).
    slots_per_core:
        Thread contexts per core.  1 reproduces the paper (never
        over-committed); >1 enables the Section VII over-commit study —
        cores time-multiplex their run queues with a reference quantum
        and context-switch penalty.
    num_cores:
        Machine size; 16 is the paper's chip, larger squares (e.g. 64)
        serve the scaling study of Section VII.
    qos_policy:
        Cache-QoS controller (see :mod:`repro.qos`):
        ``"static-equal"``, ``"missrate-prop"``, ``"ucp"``, or
        ``"target-slowdown"``.  Empty (default) disables the QoS layer
        entirely.  ``"static-equal"`` is the conclusion's performance
        isolation: each shared domain's ways split equally among its
        VMs for the whole run.
    qos_target:
        Per-VM slowdown ceiling for the ``target-slowdown`` feedback
        controller (e.g. ``1.3`` = at most 30% slower than isolation);
        ignored by the other policies.
    qos_epoch:
        Control period in simulated cycles between QoS decisions.
    phase_plan:
        Name of a registered workload phase plan (see
        :mod:`repro.workloads.phases`); empty = steady behaviour.
    rebind, rebind_interval:
        Dynamic thread migration: ``"random"`` (churn) or
        ``"affinity"`` (healing), rebalanced every
        ``rebind_interval`` cycles.  Empty = static binding (the
        paper's methodology).
    dir_cache_entries:
        Per-tile directory-cache capacity override; 0 = the machine
        default (16K entries).
    sched_policy:
        Adaptive scheduling policy (see :mod:`repro.sched`):
        ``"static"`` (the no-op baseline, byte-identical to no
        scheduler), ``"contention"``, ``"adaptive"``, or ``"hetero"``.
        Empty (default) disables the scheduling layer entirely.
        Mutually exclusive with ``rebind`` — both migrate threads.
    sched_epoch:
        Control period in simulated cycles between scheduling
        decisions.
    core_speeds:
        Per-core relative speed classes as a spec string (e.g.
        ``"1.0x8,0.5x8"``: eight fast cores, eight at half speed);
        empty = homogeneous (the paper's machine).  Heterogeneous runs
        stay on the reference engines.
    l2_asym:
        Asymmetric L2 domains as per-domain associativities (e.g.
        ``"16x2,8x2"`` at shared-4: two 16-way and two 8-way domains);
        empty = the uniform Table III geometry.  Incompatible with
        ``qos_policy``, whose way quotas assume uniform domain
        associativity.
    vm_schedule:
        Per-VM arrival/departure times, comma-separated
        ``start[:stop]`` cycles (e.g. ``"0,0:120000,40000"``): VM
        churn for the scheduling layer, or staggered starts (the
        paper's workload-start-time variable: ``"0,k,2k,..."``).  Empty
        = every VM starts at cycle 0 and runs to completion (the paper's
        methodology).  Requires single-slot, statically-bound runs.
    scenario:
        Name of a time-varying consolidation scenario (see
        :mod:`repro.scenarios`).  The scenario supplies the roster
        (``mix`` must be its ``scn-<name>`` mix), per-VM phase plans,
        arrival/departure churn, scripted phase switches, and a load
        curve actuated by a
        :class:`~repro.scenarios.hook.ScenarioHook` at the scenario's
        epoch.  Empty = a static run (the paper's methodology).
        Mutually exclusive with ``phase_plan``, ``vm_schedule`` and
        ``rebind`` — the scenario owns all of those axes; composes with
        ``qos_policy`` and ``sched_policy``.
    engine_mode:
        Execution kernel (see :mod:`repro.sim.factory`):
        ``"reference"`` (event-driven, the default), ``"batched"``
        (epoch-folded fast kernel), or ``"auto"`` (batched whenever the
        run shape allows it; resolved to a concrete mode by
        :func:`plan`, so cached results are keyed by the kernel that
        actually ran).
    """

    mix: str
    sharing: str = "shared-4"
    policy: str = "affinity"
    seed: int = 0
    measured_refs: Optional[int] = None
    warmup_refs: Optional[int] = None
    scale: float = DEFAULT_SCALE
    l2_replacement: str = "lru"
    slots_per_core: int = 1
    num_cores: int = 16
    qos_policy: str = ""
    qos_target: float = 0.0
    qos_epoch: int = 10_000
    phase_plan: str = ""
    rebind: str = ""
    rebind_interval: int = 100_000
    dir_cache_entries: int = 0  # 0 = machine default (16K per tile)
    sched_policy: str = ""
    sched_epoch: int = 10_000
    core_speeds: str = ""
    l2_asym: str = ""
    vm_schedule: str = ""
    scenario: str = ""
    engine_mode: str = "reference"


#: retired spec fields: name -> (the default they held, what replaces them)
_RETIRED_FIELDS = {
    "l2_vm_quota": (False, "qos_policy='static-equal'"),
    "start_stagger": (0, "vm_schedule='0,k,2k,...' (VM i starts at i*k)"),
}


def spec_from_dict(fields: dict) -> ExperimentSpec:
    """The spec a field dict from outside the program describes: a
    ``POST /jobs`` body, a journaled job or a stored result.

    A retired field that still holds its old default is dropped, so
    records written before it retired still load; any other value
    raises a :class:`~repro.errors.ConfigurationError` naming the field
    that replaces it.  An unknown field raises :class:`TypeError`, as
    the constructor does.
    """
    fields = dict(fields)
    for name, (default, replacement) in _RETIRED_FIELDS.items():
        value = fields.pop(name, default)
        if type(value) is not type(default) or value != default:
            raise ConfigurationError(
                f"spec field {name!r} has been retired (got "
                f"{value!r}); use {replacement} instead")
    return ExperimentSpec(**fields)


SPEC_KEY_VERSION = 1
"""Version of the spec-key derivation; bump to invalidate all keys."""


@dataclass(frozen=True)
class RunPlan:
    """One spec validated and resolved, ready to run: :func:`plan`
    builds it once and every layer that runs, keys or admits the spec
    reads it instead of re-deriving the spec's facts.

    Attributes
    ----------
    spec:
        The resolved spec (every default filled in, ``auto`` pinned);
        planning it again returns it unchanged, and it is what the
        result store hashes.
    config:
        The scaled machine the run builds its chip from.
    mix:
        The resolved :class:`~repro.core.mixes.Mix`; :attr:`profiles`
        are its per-VM workload profiles, scaled.
    scenario:
        The :class:`~repro.scenarios.model.Scenario`, or ``None``.
    start_offsets, stop_times:
        Per-VM start and stop cycles (empty = all start at 0 and run to
        completion), from ``vm_schedule`` or the scenario's churn.
    vm_phases:
        One phase plan per VM (empty = all steady): ``phase_plan``
        repeated for every VM, or the scenario roster's plans.
    needs:
        Capabilities the run needs (:func:`repro.sim.factory.run_needs`;
        the epoch probe, a run option, is not among them).
    key:
        The result store key (see :func:`repro.core.store.spec_key`).
    """

    spec: ExperimentSpec
    config: MachineConfig
    mix: Mix
    scenario: Optional[Scenario]
    start_offsets: Tuple[int, ...]
    stop_times: Tuple[Optional[int], ...]
    vm_phases: tuple
    needs: FrozenSet[str]
    key: str

    @cached_property
    def profiles(self) -> Tuple[WorkloadProfile, ...]:
        """Per-VM workload profiles, scaled; built on first use, since
        keying a plan never reads them."""
        return tuple(profile.scaled(self.spec.scale)
                     for profile in self.mix.profiles())


def _key_of(resolved: ExperimentSpec) -> str:
    """SHA-256 of the canonical JSON of a resolved spec (every field is
    a scalar, so its flat field dict encodes it exactly)."""
    payload = {"spec_key_version": SPEC_KEY_VERSION, "spec": vars(resolved)}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@lru_cache(maxsize=256)
def _scaled_machine(num_cores: int, sharing: SharingDegree,
                    l2_replacement: str, dir_cache_entries: int,
                    core_speeds: str, l2_asym: str,
                    scale: float) -> MachineConfig:
    """The scaled machine of a spec's machine fields, raising on one the
    run cannot build (memoized: a config is an immutable value)."""
    machine = dict(num_cores=num_cores, sharing=sharing,
                   l2_replacement=l2_replacement)
    if dir_cache_entries:
        machine["directory_cache_entries"] = dir_cache_entries
    if core_speeds:
        machine["core_speeds"] = parse_core_speeds(core_speeds, num_cores)
    if l2_asym:
        machine["l2_domain_assoc"] = parse_domain_assoc(
            l2_asym, sharing.num_domains(num_cores))
    config = MachineConfig(**machine).scaled(scale)
    make_policy(config.l2_replacement)
    DirectoryCache.geometry(config.directory_cache_entries)
    return config


def plan(spec) -> RunPlan:
    """Validate and resolve ``spec`` into a :class:`RunPlan`.

    The one place a spec is checked: anything the run would refuse —
    an invalid run size, conflicting fields, a machine, replacement
    policy, rebinder or VM schedule it cannot build, a name no registry
    knows, or an engine mode that lacks a capability the run needs —
    raises here (a :class:`~repro.errors.ConfigurationError` or another
    :class:`~repro.errors.ReproError`), so the library, the CLI and the
    service's admission refuse it alike.  Only ``None`` run sizes mean
    "default".  A registry module is imported only when its field is
    set.  A :class:`RunPlan` passes through unchanged.
    """
    if isinstance(spec, RunPlan):
        return spec
    for clash, message in (
        (spec.measured_refs is not None and spec.measured_refs <= 0,
         "measured_refs must be positive, got {spec.measured_refs}"),
        (spec.warmup_refs is not None and spec.warmup_refs < 0,
         "warmup_refs must be non-negative, got {spec.warmup_refs}"),
        (spec.qos_policy and spec.qos_epoch <= 0,
         "qos_epoch must be positive"),
        (spec.sched_policy and spec.sched_epoch <= 0,
         "sched_epoch must be positive"),
        (spec.sched_policy and spec.rebind,
         "sched_policy and rebind both migrate threads; pick one "
         "migration mechanism"),
        (spec.vm_schedule and spec.slots_per_core > 1,
         "vm_schedule (VM churn) requires single-slot runs"),
        (spec.vm_schedule and spec.rebind,
         "vm_schedule cannot be combined with the rebind phase rebinder; "
         "use a sched_policy for dynamic placement"),
        (spec.l2_asym and spec.qos_policy,
         "asymmetric L2 domains (l2_asym) are incompatible with "
         "qos_policy, whose way quotas assume uniform domain "
         "associativity"),
        (spec.slots_per_core <= 0, "slots_per_core must be positive"),
        (not 0 < spec.scale < float("inf"),
         "scale factor must be positive and finite, got {spec.scale}"),
        (spec.rebind and spec.rebind_interval <= 0,
         "rebind_interval must be positive, got {spec.rebind_interval}"),
        (spec.rebind and spec.rebind.strip().lower()
         not in ("random", "affinity"),
         "unknown rebinder {spec.rebind!r}; choose 'random' or "
         "'affinity'"),
    ):
        if clash:
            raise ConfigurationError(message.format(spec=spec))
    scenario = None
    if spec.scenario:
        from ..scenarios.registry import get_scenario

        scenario = get_scenario(spec.scenario)
        if spec.mix != scenario.mix_name:
            raise ConfigurationError(
                f"a scenario spec's mix must be the scenario's own "
                f"roster mix: expected {scenario.mix_name!r}, got "
                f"{spec.mix!r} (use scenario_spec() to build one)")
        for label in ("phase_plan", "vm_schedule", "rebind"):
            if getattr(spec, label):
                raise ConfigurationError(
                    f"scenario runs own the {label} axis; encode it in "
                    f"the scenario instead of setting spec.{label}")
        if scenario.has_arrivals and spec.slots_per_core > 1:
            raise ConfigurationError(
                "scenario arrivals require single-slot runs (the "
                "over-commit engine honours start times only for run-"
                "queue heads); departures compose with over-commit")
    sharing = SharingDegree.from_name(spec.sharing)
    config = _scaled_machine(spec.num_cores, sharing, spec.l2_replacement,
                             spec.dir_cache_entries, spec.core_speeds,
                             spec.l2_asym, spec.scale)
    make_scheduler(spec.policy)
    mix = resolve_mix(spec.mix)
    starts: Sequence[int] = ()
    stops: Sequence[Optional[int]] = ()
    if spec.vm_schedule:
        starts, stops = _parse_vm_schedule(spec.vm_schedule,
                                           mix.num_instances)
    vm_phases: tuple = ()
    if spec.phase_plan:
        from ..workloads.phases import get_phase_plan

        vm_phases = (get_phase_plan(spec.phase_plan),) * mix.num_instances
    hook_needs: Set[str] = set()
    if scenario is not None:
        from ..scenarios.hook import ScenarioHook

        # the scenario owns churn and phase plans: its roster compiles
        # into the engine-native start/stop and per-VM plan machinery
        if scenario.has_churn:
            starts, stops = scenario.start_offsets(), scenario.stop_times()
        plans = scenario.vm_phase_plans()
        if any(vm_plan is not None for vm_plan in plans):
            vm_phases = tuple(plans)
        hook_needs |= ScenarioHook.needs
    if spec.qos_policy:
        from ..qos.controllers import TargetSlowdown, make_controller
        from ..qos.hook import QosHook

        if (isinstance(make_controller(spec.qos_policy), TargetSlowdown)
                and spec.qos_target <= 0):
            raise ConfigurationError(
                "target-slowdown needs a positive qos_target "
                "(e.g. 1.3 = at most 30% slower than isolation)")
        hook_needs |= QosHook.needs
    if spec.sched_policy:
        from ..sched.hook import SchedHook
        from ..sched.policies import make_sched_policy

        make_sched_policy(spec.sched_policy)
        hook_needs |= SchedHook.needs
    migrates = bool(spec.rebind)
    needs = run_needs(config, spec.slots_per_core, migrates=migrates,
                      departs=any(stop is not None for stop in stops),
                      control_needs=hook_needs)
    # auto counts any vm_schedule as churn, so an arrival-only schedule
    # keeps the reference engine (and the store key) it always had
    mode = resolve_mode(spec.engine_mode,
                        (needs | {RETIRE}) if spec.vm_schedule else needs)
    check_provides(engine_class(mode, spec.slots_per_core, migrates), needs)
    measured = spec.measured_refs or _env_default(
        "REPRO_REFS", DEFAULT_MEASURED_REFS, "measured_refs")
    resolved = replace(
        spec,
        measured_refs=measured,
        warmup_refs=(spec.warmup_refs if spec.warmup_refs is not None
                     else measured // 2),
        seed=spec.seed or _env_default("REPRO_SEED", DEFAULT_SEED, "seed"),
        sharing={1: "private", 16: "shared"}.get(sharing,
                                                 f"shared-{int(sharing)}"),
        engine_mode=mode,
    )
    return RunPlan(
        spec=resolved, config=config, mix=mix,
        scenario=scenario, start_offsets=tuple(starts),
        stop_times=tuple(stops), vm_phases=vm_phases,
        needs=needs, key=_key_of(resolved),
    )


def resolve_mix(name: str) -> Mix:
    """Map a spec's mix string to a :class:`~repro.core.mixes.Mix`."""
    if name.startswith("iso-"):
        return isolated_mix(name[len("iso-"):])
    if name.startswith("scn-"):
        # scenario rosters resolve through the scenario registry so the
        # mix is always consistent with the scenario that owns it
        from ..scenarios.registry import get_scenario

        return get_scenario(name[len("scn-"):]).to_mix()
    return get_mix(name)


@dataclass(frozen=True)
class ChipSummary:
    """Chip-level statistics of one run."""

    mesh_mean_latency: float
    mesh_mean_queueing: float
    mesh_mean_hops: float
    c2c_clean: int
    c2c_dirty: int
    memory_fetches: int
    coherence_writebacks: int
    invalidations: int
    upgrades: int
    intra_domain_transfers: int
    directory_cache_hit_rate: float
    memory_reads: int
    memory_writebacks: int


@dataclass
class ExperimentResult:
    """Everything measured in one run.

    ``series`` holds the epoch telemetry time-series (the JSON form of
    :func:`repro.obs.series.series_to_dict`) when the run was executed
    with a live telemetry hub and a positive epoch; it is *not* part of
    the result codec (:func:`repro.core.store.result_to_dict`) — the
    serialized result is byte-identical with telemetry on or off, and
    series persist as store sidecar files instead.

    ``qos`` holds the QoS controller's end-of-run account (the
    :meth:`repro.qos.hook.QosHook.summary` dict: policy, control
    epochs, quota adjustments, re-binds, final quotas, violations) for
    runs with ``spec.qos_policy`` set.  Like ``series`` it is excluded
    from the result codec, so a ``static-equal`` run serializes
    byte-identically whatever its control epoch.

    ``sched`` holds the scheduling hook's end-of-run account (the
    :meth:`repro.sched.hook.SchedHook.summary` dict: policy, control
    epochs, migrations proposed/applied/refused, final thread->core
    binding) for runs with ``spec.sched_policy`` set; excluded from the
    result codec like ``qos``.

    ``scenario`` holds the scenario hook's end-of-run account (the
    :meth:`repro.scenarios.hook.ScenarioHook.summary` dict: control
    epochs, load adjustments, switches applied, per-window issued
    attribution, per-VM script accounting) for runs with
    ``spec.scenario`` set; excluded from the result codec like ``qos``
    and ``sched``.
    """

    spec: ExperimentSpec
    mix: Mix
    vm_metrics: List[VMMetrics]
    final_time: int
    chip_summary: ChipSummary
    occupancy: List[Dict[int, int]]
    residency: List[Set[int]]
    domain_lines: int
    assignments: List[List[int]] = field(default_factory=list)
    series: Optional[Dict[str, list]] = None
    qos: Optional[Dict[str, object]] = None
    sched: Optional[Dict[str, object]] = None
    scenario: Optional[Dict[str, object]] = None

    def metrics_for(self, workload: str) -> List[VMMetrics]:
        """All VM metrics of one workload, in VM order."""
        return [vm for vm in self.vm_metrics if vm.workload == workload]

    def vm(self, vm_id: int) -> VMMetrics:
        return self.vm_metrics[vm_id]

    @property
    def workloads(self) -> List[str]:
        return [vm.workload for vm in self.vm_metrics]

    def mean_cycles(self, workload: str) -> float:
        """Average completion cycles across a workload's instances."""
        instances = self.metrics_for(workload)
        return sum(vm.cycles for vm in instances) / len(instances)

    def mean_miss_rate(self, workload: str) -> float:
        instances = self.metrics_for(workload)
        return sum(vm.miss_rate for vm in instances) / len(instances)

    def mean_miss_latency(self, workload: str) -> float:
        instances = self.metrics_for(workload)
        return sum(vm.mean_miss_latency for vm in instances) / len(instances)


def _make_rebinder(kind: str, chip: Chip, rng_factory: RngFactory):
    """Build a dynamic-rebinding policy by name (checked by
    :func:`plan`)."""
    from ..sim.dynamic import AffinityRebinder, RandomRebinder

    if kind.strip().lower() == "random":
        return RandomRebinder(chip.config.num_cores,
                              rng_factory.stream("rebinder"))
    return AffinityRebinder(
        domain_of_core=chip.placement.domain_of,
        cores_of_domain=[list(d) for d in chip.placement.domains],
    )


def _parse_vm_schedule(text: str, num_vms: int):
    """Parse ``spec.vm_schedule`` into (start_offsets, stop_times).

    One comma-separated ``start[:stop]`` entry per VM, both in cycles;
    an omitted stop means "runs to completion".
    """
    entries = [token.strip() for token in text.split(",")]
    if len(entries) != num_vms:
        raise ConfigurationError(
            f"vm_schedule has {len(entries)} entries for {num_vms} VMs"
        )
    starts: List[int] = []
    stops: List[Optional[int]] = []
    for vm_index, entry in enumerate(entries):
        start_text, sep, stop_text = entry.partition(":")
        try:
            start = int(start_text)
            stop = int(stop_text) if sep else None
        except ValueError:
            raise ConfigurationError(
                f"vm_schedule entry {entry!r} for VM {vm_index} is not "
                f"'start[:stop]' with integer cycles"
            )
        if start < 0:
            raise ConfigurationError(
                f"vm_schedule start {start} for VM {vm_index} is negative"
            )
        if stop is not None and stop <= start:
            raise ConfigurationError(
                f"vm_schedule stop {stop} for VM {vm_index} must exceed "
                f"its start {start}"
            )
        starts.append(start)
        stops.append(stop)
    return starts, stops


def _control_hooks(run: RunPlan, chip: Chip, hypervisor, contexts,
                   assignments, rng_factory: RngFactory, telemetry):
    """The run's control hooks as ``(result attribute, hook)`` pairs, in
    the order they act each epoch: the scenario first (load and phase
    actuation shape the epoch the controllers sense), then QoS, then
    the scheduler — quota decisions land before the same epoch's
    migrations."""
    spec = run.spec
    hooks = []
    if run.scenario is not None:
        from ..scenarios.hook import ScenarioHook

        hooks.append(("scenario", ScenarioHook(
            run.scenario, hypervisor.vms, contexts,
            rng=rng_factory.stream("scenario"), telemetry=telemetry)))
    if spec.qos_policy:
        from ..qos.controllers import TargetSlowdown, make_controller
        from ..qos.hook import QosHook

        controller = make_controller(spec.qos_policy)
        baseline_cpr: Dict[int, float] = {}
        if isinstance(controller, TargetSlowdown):
            # isolated baselines come memoized from the result store;
            # isolation_spec strips the qos fields, so this never
            # recurses into another QoS run
            from .isolation import run_isolated

            per_thread = spec.warmup_refs + spec.measured_refs
            for vm_id, profile in enumerate(run.profiles):
                iso = run_isolated(profile.name, template=spec)
                baseline_cpr[vm_id] = iso.vm_metrics[0].cycles / per_thread
        hooks.append(("qos", QosHook(
            chip, contexts, controller, assignments,
            epoch=spec.qos_epoch, telemetry=telemetry,
            hypervisor=hypervisor, baseline_cpr=baseline_cpr,
            target=spec.qos_target,
            vm_workloads={vm.vm_id: vm.workload_name
                          for vm in hypervisor.vms})))
    if spec.sched_policy:
        from ..sched import SchedHook, make_sched_policy

        hooks.append(("sched", SchedHook(
            chip, contexts, make_sched_policy(spec.sched_policy),
            epoch=spec.sched_epoch, telemetry=telemetry,
            hypervisor=hypervisor, slots_per_core=spec.slots_per_core,
            rng=rng_factory.stream("sched"))))
    return hooks


def _compose(hooks):
    """One :class:`~repro.control.Control` for the engine, or ``None``."""
    if not hooks:
        return None
    if len(hooks) == 1:
        return hooks[0][1]
    from ..control import CompositeControl

    return CompositeControl([hook for _name, hook in hooks])


def _chip_state(engine, chip: Chip):
    """``(ChipSummary, L2 occupancy, L2 residency)`` at the end of a run."""
    if hasattr(engine, "summary_counters"):
        # batched engines track chip-level effects themselves (the chip
        # object never saw the references)
        return (ChipSummary(**engine.summary_counters()),
                engine.l2_snapshot_by_vm(), engine.l2_resident_sets())
    coherence = chip.coherence.stats
    # a tile never looked up has no cache yet: no hits, no misses
    caches = [c for c in chip.directory.caches if c is not None]
    dir_accesses = sum(c.hits + c.misses for c in caches)
    summary = ChipSummary(
        mesh_mean_latency=chip.mesh.mean_latency,
        mesh_mean_queueing=chip.mesh.mean_queueing,
        mesh_mean_hops=chip.mesh.mean_hops,
        c2c_clean=coherence.c2c_clean,
        c2c_dirty=coherence.c2c_dirty,
        memory_fetches=coherence.memory_fetches,
        coherence_writebacks=coherence.writebacks,
        invalidations=coherence.invalidations_sent,
        upgrades=coherence.upgrades,
        intra_domain_transfers=chip.intra_domain_transfers,
        directory_cache_hit_rate=(
            sum(c.hits for c in caches) / dir_accesses
            if dir_accesses else 0.0),
        memory_reads=chip.memory.total_reads,
        memory_writebacks=chip.memory.total_writebacks,
    )
    return summary, chip.l2_snapshot_by_vm(), chip.l2_resident_sets()


def clear_result_cache() -> None:
    """Drop memoized experiment results (tests use this).

    Clears the default store's memory tier; any on-disk tier the
    default store was configured with is untouched.
    """
    from .store import get_default_store

    get_default_store().clear_memory()


def run_experiment(
    spec,
    use_cache: bool = True,
    store=None,
    telemetry=None,
    epoch: int = 0,
) -> ExperimentResult:
    """Run one consolidation experiment: an :class:`ExperimentSpec`, or
    the :class:`RunPlan` of one (see :func:`plan`).

    Results are cached in a :class:`repro.core.store.ResultStore` under
    the plan's key; ``store=None`` uses the process-wide default store
    and ``use_cache=False`` bypasses lookup *and* insertion.

    A live :class:`~repro.obs.telemetry.Telemetry` hub records wall-clock
    spans; a positive ``epoch`` also samples per-VM time series every
    ``epoch`` simulated cycles (into ``telemetry.series``,
    ``result.series`` and the store's series tier).  Telemetry changes
    neither outcomes nor the key.  A cache hit cannot replay sampling,
    so an epoch-probed run re-simulates unless the store holds its
    series; engines without a probe slot (over-commit, ``rebind``)
    refuse epoch sampling with a
    :class:`~repro.errors.ConfigurationError`.
    """
    from .store import get_default_store

    telemetry = NULL_TELEMETRY if telemetry is None else telemetry
    want_series = telemetry.enabled and epoch > 0
    run = plan(spec)
    spec = run.spec
    store = get_default_store() if store is None else store
    if use_cache:
        cached = store.get(run)
        if cached is not None:
            if not want_series:
                return cached
            stored_series = store.get_series(run)
            if stored_series is not None:
                # replay the stored series into the hub and reuse the
                # cached result — nothing to re-simulate
                for name, series in series_from_dict(stored_series).items():
                    telemetry.series_for(name).points.extend(series.points)
                cached.series = stored_series
                return cached

    chip = Chip(run.config)
    rng_factory = RngFactory(spec.seed)
    thread_counts = [profile.threads for profile in run.profiles]
    scheduler_rng = rng_factory.stream("scheduler")
    if spec.slots_per_core > 1:
        assignments = assign_overcommitted(
            spec.policy, thread_counts, chip.placement,
            slots_per_core=spec.slots_per_core, rng=scheduler_rng)
    else:
        assignments = make_scheduler(spec.policy).assign(
            thread_counts, chip.placement, rng=scheduler_rng)
    hypervisor = Hypervisor(chip, rng_factory)
    contexts = hypervisor.launch(
        run.profiles, assignments, measured_refs=spec.measured_refs,
        warmup_refs=spec.warmup_refs, slots_per_core=spec.slots_per_core,
        start_offsets=run.start_offsets, stop_times=run.stop_times,
        vm_phases=run.vm_phases)
    hypervisor.check_isolation()
    hooks = _control_hooks(run, chip, hypervisor, contexts, assignments,
                           rng_factory, telemetry)
    probe = (EpochProbe(chip, contexts, epoch, telemetry)
             if want_series else None)
    engine = make_engine(
        EngineRequest(
            machine=chip, threads=contexts, control=_compose(hooks),
            probe=probe, slots_per_core=spec.slots_per_core,
            rebinder=(_make_rebinder(spec.rebind, chip, rng_factory)
                      if spec.rebind else None),
            rebind_interval=spec.rebind_interval),
        mode=spec.engine_mode)
    if probe is not None and hasattr(engine, "l2_occupancy_share"):
        # batched engines expose the inspection surface themselves
        probe.observe(engine)
    with telemetry.span(f"simulate {spec.mix}/{spec.sharing}/{spec.policy}",
                        cat="experiment"):
        engine_result = engine.run()

    vm_metrics = [
        VMMetrics.from_threads(
            vm.vm_id, vm.workload_name,
            [context.stats for context in contexts
             if context.vm_id == vm.vm_id],
            completion_time=engine_result.vm_completion_times[vm.vm_id])
        for vm in hypervisor.vms
    ]
    summary, occupancy, residency = _chip_state(engine, chip)
    result = ExperimentResult(
        spec=spec, mix=run.mix, vm_metrics=vm_metrics,
        final_time=engine_result.final_time, chip_summary=summary,
        occupancy=occupancy, residency=residency,
        domain_lines=run.config.l2_geometry().num_lines,
        assignments=assignments)
    if probe is not None:
        result.series = series_to_dict(telemetry.series)
    for name, hook in hooks:
        setattr(result, name, hook.summary())
    # break the engine <-> hook/probe and chip cycles: reference
    # counting then frees the finished cell, not a full collection
    engine.control = engine.probe = None
    chip.release()
    if use_cache:
        store.put(run, result)
        if result.series is not None:
            store.put_series(run, result.series)
    return result
