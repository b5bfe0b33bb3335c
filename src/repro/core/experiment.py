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
:class:`~repro.errors.ConfigurationError` from :func:`resolve_defaults`
instead of silently steering defaults.  Set
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

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

from ..caches.replacement import make_policy
from ..coherence.directory import DirectoryCache
from ..control import ASYM_L2, CORE_SPEEDS, MIGRATE, REQUEUE, RETIRE
from ..errors import ConfigurationError
from ..machine.chip import Chip
from ..machine.config import (
    MachineConfig,
    SharingDegree,
    parse_core_speeds,
    parse_domain_assoc,
)
from ..sim.factory import EngineRequest, make_engine, resolve_mode
from ..sim.rng import RngFactory
from ..vm.hypervisor import Hypervisor
from .metrics import VMMetrics
from .mixes import Mix, get_mix, isolated_mix
from .scheduling import assign_overcommitted, make_scheduler

__all__ = [
    "DEFAULT_SCALE",
    "DEFAULT_MEASURED_REFS",
    "DEFAULT_SEED",
    "ExperimentSpec",
    "ChipSummary",
    "ExperimentResult",
    "resolve_defaults",
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


def _env_default(var: str, fallback: int, field_name: str) -> int:
    """Resolve one defaulted field, rejecting the removed env path."""
    if os.environ.get(var) is not None:
        raise ConfigurationError(
            f"the {var} environment variable has been removed; set "
            f"ExperimentSpec.{field_name} explicitly (it previously "
            f"supplied the default for defaulted specs)"
        )
    return fallback


def default_measured_refs() -> int:
    """Built-in per-thread measured references (24000).

    Raises :class:`~repro.errors.ConfigurationError` if the removed
    ``REPRO_REFS`` environment knob is set.
    """
    return _env_default("REPRO_REFS", DEFAULT_MEASURED_REFS, "measured_refs")


def default_seed() -> int:
    """Built-in default experiment seed (1).

    Raises :class:`~repro.errors.ConfigurationError` if the removed
    ``REPRO_SEED`` environment knob is set.
    """
    return _env_default("REPRO_SEED", DEFAULT_SEED, "seed")


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
    start_stagger:
        Per-VM start-time stagger in cycles (VM ``i`` starts at
        ``i * start_stagger``); the paper's workload-start-time
        methodological variable.
    num_cores:
        Machine size; 16 is the paper's chip, larger squares (e.g. 64)
        serve the scaling study of Section VII.
    l2_vm_quota:
        Enable per-VM way-quota partitioning of shared L2 domains —
        the performance-isolation mechanism the paper's conclusion
        argues for.  Each domain's ways are split equally among the
        VMs scheduled onto it.
    qos_policy:
        Dynamic cache-QoS controller (see :mod:`repro.qos`):
        ``"static-equal"``, ``"missrate-prop"``, ``"ucp"``, or
        ``"target-slowdown"``.  Empty (default) disables the QoS layer
        entirely.  Mutually exclusive with ``l2_vm_quota`` — both claim
        ownership of the way quotas.
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
        empty = the uniform Table III geometry.  Incompatible with the
        way-quota owners (``l2_vm_quota`` / ``qos_policy``), which
        assume uniform domain associativity.
    vm_schedule:
        Per-VM arrival/departure times, comma-separated
        ``start[:stop]`` cycles (e.g. ``"0,0:120000,40000"``): VM
        churn for the scheduling layer.  Empty = every VM runs start
        to finish (the paper's methodology).  Requires single-slot,
        statically-bound runs and replaces ``start_stagger``.
    scenario:
        Name of a time-varying consolidation scenario (see
        :mod:`repro.scenarios`).  The scenario supplies the roster
        (``mix`` must be its ``scn-<name>`` mix), per-VM phase plans,
        arrival/departure churn, scripted phase switches, and a load
        curve actuated by a
        :class:`~repro.scenarios.hook.ScenarioHook` at the scenario's
        epoch.  Empty = a static run (the paper's methodology).
        Mutually exclusive with ``phase_plan``, ``vm_schedule``,
        ``start_stagger``, and ``rebind`` — the scenario owns all of
        those axes; composes with ``qos_policy`` and ``sched_policy``.
    engine_mode:
        Execution kernel (see :mod:`repro.sim.factory`):
        ``"reference"`` (event-driven, the default), ``"batched"``
        (epoch-folded fast kernel), or ``"auto"`` (batched whenever the
        run shape allows it; resolved to a concrete mode by
        :func:`resolve_defaults`, so cached results are keyed by the
        kernel that actually ran).
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
    start_stagger: int = 0
    num_cores: int = 16
    l2_vm_quota: bool = False
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

    def normalized(self) -> "ExperimentSpec":
        """Resolve every defaulted field to a concrete value
        (see :func:`resolve_defaults`)."""
        return resolve_defaults(self)

    def _canonical_sharing(self) -> str:
        degree = SharingDegree.from_name(self.sharing)
        return {
            SharingDegree.PRIVATE: "private",
            SharingDegree.SHARED_2: "shared-2",
            SharingDegree.SHARED_4: "shared-4",
            SharingDegree.SHARED_8: "shared-8",
            SharingDegree.SHARED_16: "shared",
        }[degree]

    @property
    def sharing_degree(self) -> SharingDegree:
        return SharingDegree.from_name(self.sharing)


def resolve_defaults(spec: ExperimentSpec) -> ExperimentSpec:
    """Resolve every defaulted field of ``spec`` to a concrete value.

    The removed ``REPRO_REFS`` / ``REPRO_SEED`` environment knobs are
    rejected here with a :class:`~repro.errors.ConfigurationError`
    naming the explicit spec field to set instead (they only ever
    applied to *defaulted* specs, so an explicitly-filled spec never
    consults the environment).  ``engine_mode="auto"`` resolves to a
    concrete engine for the run shape.  The returned spec is
    idempotent under re-resolution and is what the result store hashes
    (see :func:`repro.core.store.spec_key`).  Only ``None`` run sizes
    mean "default": a set ``measured_refs`` must be positive and a set
    ``warmup_refs`` non-negative.  A spec the run would refuse before
    simulating is refused here, so the library, the CLI and the
    service's job keying all refuse it in one place.
    """
    if spec.measured_refs is not None and spec.measured_refs <= 0:
        raise ConfigurationError(
            f"measured_refs must be positive, got {spec.measured_refs}")
    if spec.warmup_refs is not None and spec.warmup_refs < 0:
        raise ConfigurationError(
            f"warmup_refs must be non-negative, got {spec.warmup_refs}")
    _refuse_invalid(spec)
    measured = spec.measured_refs or default_measured_refs()
    warmup = spec.warmup_refs if spec.warmup_refs is not None else measured // 2
    seed = spec.seed or default_seed()
    return replace(
        spec,
        measured_refs=measured,
        warmup_refs=warmup,
        seed=seed,
        sharing=spec._canonical_sharing(),
        engine_mode=resolve_mode(spec.engine_mode, _spec_needs(spec)),
    )


def _refuse_invalid(spec: ExperimentSpec) -> None:
    """Raise what the run would raise before simulating: conflicting
    fields, a machine, replacement policy, rebinder or VM schedule the
    run cannot build, or a mix, placement, QoS policy, scheduling
    policy, scenario or phase plan no registry knows.  A registry
    module is imported only when its field is set."""
    if spec.qos_policy and spec.l2_vm_quota:
        raise ConfigurationError(
            "l2_vm_quota and qos_policy both claim ownership of the way "
            "quotas; use qos_policy='static-equal' for the static split"
        )
    if spec.qos_policy and spec.qos_epoch <= 0:
        raise ConfigurationError("qos_epoch must be positive")
    if spec.sched_policy:
        if spec.sched_epoch <= 0:
            raise ConfigurationError("sched_epoch must be positive")
        if spec.rebind:
            raise ConfigurationError(
                "sched_policy and rebind both migrate threads; "
                "pick one migration mechanism"
            )
    if spec.vm_schedule:
        if spec.slots_per_core > 1:
            raise ConfigurationError(
                "vm_schedule (VM churn) requires single-slot runs"
            )
        if spec.rebind:
            raise ConfigurationError(
                "vm_schedule cannot be combined with the rebind phase "
                "rebinder; use a sched_policy for dynamic placement"
            )
        if spec.start_stagger:
            raise ConfigurationError(
                "vm_schedule supersedes start_stagger; encode the "
                "arrival times in the schedule"
            )
    if spec.l2_asym and (spec.qos_policy or spec.l2_vm_quota):
        raise ConfigurationError(
            "asymmetric L2 domains (l2_asym) are incompatible with the "
            "way-quota owners (qos_policy / l2_vm_quota), which assume "
            "uniform domain associativity"
        )
    if spec.scenario:
        from ..scenarios.registry import get_scenario

        scenario = get_scenario(spec.scenario)
        if spec.mix != scenario.mix_name:
            raise ConfigurationError(
                f"a scenario spec's mix must be the scenario's own "
                f"roster mix: expected {scenario.mix_name!r}, got "
                f"{spec.mix!r} (use scenario_spec() to build one)"
            )
        for conflicting, label in (
            (spec.phase_plan, "phase_plan"),
            (spec.vm_schedule, "vm_schedule"),
            (spec.start_stagger, "start_stagger"),
            (spec.rebind, "rebind"),
        ):
            if conflicting:
                raise ConfigurationError(
                    f"scenario runs own the {label} axis; encode it in "
                    f"the scenario instead of setting spec.{label}"
                )
        if scenario.has_arrivals and spec.slots_per_core > 1:
            raise ConfigurationError(
                "scenario arrivals require single-slot runs (the "
                "over-commit engine honours start times only for run-"
                "queue heads); departures compose with over-commit"
            )
    if spec.slots_per_core <= 0:
        raise ConfigurationError("slots_per_core must be positive")
    if spec.rebind and spec.rebind.strip().lower() not in ("random", "affinity"):
        raise ConfigurationError(
            f"unknown rebinder {spec.rebind!r}; choose 'random' or 'affinity'")
    config = _machine_config(spec)
    make_policy(config.l2_replacement)
    DirectoryCache.geometry(config.directory_cache_entries)
    mix = resolve_mix(spec.mix)
    if spec.vm_schedule:
        _parse_vm_schedule(spec.vm_schedule, len(mix.profiles()))
    make_scheduler(spec.policy)
    if spec.qos_policy:
        from ..qos.controllers import make_controller

        make_controller(spec.qos_policy)
    if spec.sched_policy:
        from ..sched.policies import make_sched_policy

        make_sched_policy(spec.sched_policy)
    if spec.phase_plan:
        from ..workloads.phases import get_phase_plan

        get_phase_plan(spec.phase_plan)


def _machine_config(spec: ExperimentSpec) -> MachineConfig:
    """The scaled machine a spec runs on (raises on a machine field the
    run cannot build)."""
    machine_params = dict(
        num_cores=spec.num_cores,
        sharing=spec.sharing_degree,
        l2_replacement=spec.l2_replacement,
    )
    if spec.dir_cache_entries:
        machine_params["directory_cache_entries"] = spec.dir_cache_entries
    if spec.core_speeds:
        machine_params["core_speeds"] = parse_core_speeds(
            spec.core_speeds, spec.num_cores)
    if spec.l2_asym:
        machine_params["l2_domain_assoc"] = parse_domain_assoc(
            spec.l2_asym, spec.sharing_degree.num_domains(spec.num_cores))
    return MachineConfig(**machine_params).scaled(spec.scale)


def _spec_needs(spec: ExperimentSpec) -> Set[str]:
    """The spec mirror of :func:`repro.sim.factory.request_needs`; a
    hook module is imported only when the spec names that hook."""
    needs = {need for present, need in (
        (spec.slots_per_core > 1, REQUEUE), (spec.rebind, MIGRATE),
        (spec.vm_schedule, RETIRE), (spec.core_speeds, CORE_SPEEDS),
        (spec.l2_asym, ASYM_L2)) if present}
    if spec.qos_policy:
        from ..qos.hook import QosHook

        needs |= QosHook.needs
    if spec.sched_policy:
        from ..sched.hook import SchedHook

        needs |= SchedHook.needs
    if spec.scenario:
        from ..scenarios.hook import ScenarioHook

        needs |= ScenarioHook.needs
    return needs


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
    byte-identically to the legacy static-quota path.

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
    :func:`resolve_defaults`)."""
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


def _apply_vm_quotas(chip: Chip, assignments) -> None:
    """Split each shared domain's ways equally among its resident VMs.

    Delegates to :meth:`repro.qos.controllers.QosController.install`,
    the single owner of initial quota construction — the legacy
    ``l2_vm_quota`` flag and every dynamic QoS policy set up their
    starting split through the same code path.
    """
    from ..qos.controllers import QosController

    QosController.install(chip, assignments)


def clear_result_cache() -> None:
    """Drop memoized experiment results (tests use this).

    Clears the default store's memory tier; any on-disk tier the
    default store was configured with is untouched.
    """
    from .store import get_default_store

    get_default_store().clear_memory()


def run_experiment(
    spec: ExperimentSpec,
    use_cache: bool = True,
    store=None,
    telemetry=None,
    epoch: int = 0,
) -> ExperimentResult:
    """Run one consolidation experiment.

    Results are cached in a :class:`repro.core.store.ResultStore` keyed
    by the fully-resolved spec: the benchmark harness re-uses isolation
    baselines across figures without re-simulating them, and a store
    with a disk tier carries results across processes and sessions.
    ``store=None`` uses the process-wide default store; ``use_cache=False``
    bypasses lookup *and* insertion.

    Telemetry
    ---------
    Pass a live :class:`~repro.obs.telemetry.Telemetry` hub to record
    wall-clock phase spans, and a positive ``epoch`` to additionally
    sample per-VM time series every ``epoch`` simulated cycles through
    an :class:`~repro.obs.probes.EpochProbe` (the series land in
    ``telemetry.series``, on ``result.series``, and — when the store
    has a disk tier — in a ``<key>.series.json`` sidecar).  Telemetry
    never changes simulation outcomes; the epoch probe is read-only
    and the spec (hence the store key) does not include it.  A cache
    hit cannot replay sampling, so epoch-probed runs resolve the store
    *series* tier first and re-simulate if no stored series exists.
    Engines without a probe slot (over-commit, ``rebind``) refuse
    epoch sampling with :class:`~repro.errors.ConfigurationError`.
    """
    from .store import get_default_store

    if telemetry is None:
        from ..obs.telemetry import NULL_TELEMETRY

        telemetry = NULL_TELEMETRY
    want_series = telemetry.enabled and epoch > 0

    spec = spec.normalized()
    scenario = None
    if spec.scenario:
        from ..scenarios.registry import get_scenario

        scenario = get_scenario(spec.scenario)
    if store is None:
        store = get_default_store()
    if use_cache:
        cached = store.get(spec)
        if cached is not None:
            if not want_series:
                return cached
            stored_series = store.get_series(spec)
            if stored_series is not None:
                # replay the stored series into the hub and reuse the
                # cached result — nothing to re-simulate
                from ..obs.series import series_from_dict

                for name, series in series_from_dict(stored_series).items():
                    telemetry.series_for(name).points.extend(series.points)
                cached.series = stored_series
                return cached
            # cached result but no sampled series: fall through and
            # re-simulate (results are deterministic, so this only
            # costs time, never correctness)

    mix = resolve_mix(spec.mix)
    profiles = [profile.scaled(spec.scale) for profile in mix.profiles()]

    config = _machine_config(spec)
    chip = Chip(config)
    rng_factory = RngFactory(spec.seed)
    thread_counts = [profile.threads for profile in profiles]
    scheduler_rng = rng_factory.stream("scheduler")
    if spec.slots_per_core > 1:
        assignments = assign_overcommitted(
            spec.policy, thread_counts, chip.placement,
            slots_per_core=spec.slots_per_core, rng=scheduler_rng,
        )
    else:
        assignments = make_scheduler(spec.policy).assign(
            thread_counts, chip.placement, rng=scheduler_rng,
        )
    hypervisor = Hypervisor(chip, rng_factory)
    start_offsets = (
        [i * spec.start_stagger for i in range(len(profiles))]
        if spec.start_stagger else ()
    )
    stop_times = ()
    if spec.vm_schedule:
        start_offsets, stop_times = _parse_vm_schedule(
            spec.vm_schedule, len(profiles))
    phases = None
    if spec.phase_plan:
        from ..workloads.phases import get_phase_plan

        phases = get_phase_plan(spec.phase_plan)
    vm_phases = ()
    if scenario is not None:
        # the scenario owns churn and phase plans: compile its roster
        # into the engine-native start/stop and per-VM plan machinery
        if scenario.has_churn:
            start_offsets = scenario.start_offsets()
            stop_times = scenario.stop_times()
        plans = scenario.vm_phase_plans()
        if any(plan is not None for plan in plans):
            vm_phases = plans
    contexts = hypervisor.launch(
        profiles,
        assignments,
        measured_refs=spec.measured_refs,
        warmup_refs=spec.warmup_refs,
        slots_per_core=spec.slots_per_core,
        start_offsets=start_offsets,
        stop_times=stop_times,
        phases=phases,
        vm_phases=vm_phases,
    )
    hypervisor.check_isolation()
    if spec.l2_vm_quota:
        _apply_vm_quotas(chip, assignments)
    qos_hook = None
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
            for vm_id, profile in enumerate(profiles):
                iso = run_isolated(profile.name, template=spec)
                baseline_cpr[vm_id] = iso.vm_metrics[0].cycles / per_thread
        qos_hook = QosHook(
            chip, contexts, controller, assignments,
            epoch=spec.qos_epoch, telemetry=telemetry,
            hypervisor=hypervisor, baseline_cpr=baseline_cpr,
            target=spec.qos_target,
            vm_workloads={vm.vm_id: vm.workload_name
                          for vm in hypervisor.vms},
        )
    sched_hook = None
    if spec.sched_policy:
        from ..sched import SchedHook, make_sched_policy

        sched_hook = SchedHook(
            chip, contexts, make_sched_policy(spec.sched_policy),
            epoch=spec.sched_epoch, telemetry=telemetry,
            hypervisor=hypervisor,
            slots_per_core=spec.slots_per_core,
            rng=rng_factory.stream("sched"),
        )
    scenario_hook = None
    if scenario is not None:
        from ..scenarios.hook import ScenarioHook

        scenario_hook = ScenarioHook(
            scenario, hypervisor.vms, contexts,
            rng=rng_factory.stream("scenario"), telemetry=telemetry,
        )
    hooks = [hook for hook in (scenario_hook, qos_hook, sched_hook)
             if hook is not None]
    if not hooks:
        control = None
    elif len(hooks) == 1:
        control = hooks[0]
    else:
        from ..control import CompositeControl

        # scenario first (load/phase actuation shapes the epoch the
        # controllers sense), then QoS, then the scheduler — quota
        # decisions land before the same epoch's migrations
        control = CompositeControl(hooks)
    rebinder = (
        _make_rebinder(spec.rebind, chip, rng_factory) if spec.rebind else None
    )
    probe = None
    if want_series:
        from ..obs.probes import EpochProbe

        probe = EpochProbe(chip, contexts, epoch, telemetry)
    engine = make_engine(
        EngineRequest(
            machine=chip,
            threads=contexts,
            control=control,
            probe=probe,
            slots_per_core=spec.slots_per_core,
            rebinder=rebinder,
            rebind_interval=spec.rebind_interval,
        ),
        mode=spec.engine_mode,
    )
    if probe is not None and hasattr(engine, "l2_occupancy_share"):
        # batched engines expose the inspection surface themselves
        probe.observe(engine)
    with telemetry.span(f"simulate {spec.mix}/{spec.sharing}/{spec.policy}",
                        cat="experiment"):
        engine_result = engine.run()

    vm_metrics: List[VMMetrics] = []
    for vm in hypervisor.vms:
        threads = [
            context.stats for context in contexts if context.vm_id == vm.vm_id
        ]
        vm_metrics.append(
            VMMetrics.from_threads(
                vm.vm_id,
                vm.workload_name,
                threads,
                completion_time=engine_result.vm_completion_times[vm.vm_id],
            )
        )

    if hasattr(engine, "summary_counters"):
        # batched engines track chip-level effects themselves (the chip
        # object never saw the references)
        summary = ChipSummary(**engine.summary_counters())
        occupancy = engine.l2_snapshot_by_vm()
        residency = engine.l2_resident_sets()
    else:
        coherence = chip.coherence.stats
        # a tile never looked up has no cache yet: no hits, no misses
        caches = [c for c in chip.directory.caches if c is not None]
        total_dir_accesses = sum(c.hits + c.misses for c in caches)
        total_dir_hits = sum(c.hits for c in caches)
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
                total_dir_hits / total_dir_accesses
                if total_dir_accesses else 0.0
            ),
            memory_reads=chip.memory.total_reads,
            memory_writebacks=chip.memory.total_writebacks,
        )
        occupancy = chip.l2_snapshot_by_vm()
        residency = chip.l2_resident_sets()

    result = ExperimentResult(
        spec=spec,
        mix=mix,
        vm_metrics=vm_metrics,
        final_time=engine_result.final_time,
        chip_summary=summary,
        occupancy=occupancy,
        residency=residency,
        domain_lines=config.l2_geometry().num_lines,
        assignments=assignments,
    )
    if probe is not None:
        from ..obs.series import series_to_dict

        result.series = series_to_dict(telemetry.series)
    if qos_hook is not None:
        result.qos = qos_hook.summary()
    if sched_hook is not None:
        result.sched = sched_hook.summary()
    if scenario_hook is not None:
        result.scenario = scenario_hook.summary()
    # break the engine <-> hook/probe and chip cycles: reference
    # counting then frees the finished cell, not a full collection
    engine.control = engine.probe = None
    chip.release()
    if use_cache:
        store.put(spec, result)
        if result.series is not None:
            store.put_series(spec, result.series)
    return result
