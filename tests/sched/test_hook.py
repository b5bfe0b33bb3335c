"""SchedHook wiring: engine-factory gating, spec validation,
composition with the QoS hook, and fixed-seed reproducibility."""

import pytest

from repro.control import ASYM_L2, CORE_SPEEDS, MIGRATE, QUOTA, RETIRE
from repro.core.experiment import ExperimentSpec, plan, run_experiment
from repro.errors import ConfigurationError
from repro.sched import CompositeControl, SchedHook, StaticPlacement
from repro.sim.factory import EngineRequest, make_engine, resolve_mode

_FAST = dict(measured_refs=800, warmup_refs=400, seed=1)


# -- engine-factory gating (the auto-mode regression) ------------------


def test_auto_mode_never_resolves_sched_spec_to_batched():
    """A spec naming a scheduler must pin the reference engine even
    under ``auto`` — the batched kernel cannot re-home threads."""
    spec = ExperimentSpec(mix="mix1", sched_policy="contention",
                          engine_mode="auto", **_FAST)
    assert plan(spec).spec.engine_mode == "reference"
    # the plain spec still picks batched, so the gate above is the
    # scheduler, not a global fallback
    plain = ExperimentSpec(mix="mix1", engine_mode="auto", **_FAST)
    assert plan(plain).spec.engine_mode == "batched"


@pytest.mark.parametrize("kwargs", [
    dict(needs=SchedHook.needs),
    dict(needs={CORE_SPEEDS, ASYM_L2}),
    dict(needs={RETIRE}),
])
def test_resolve_mode_auto_falls_back_to_reference(kwargs):
    assert resolve_mode("auto", **kwargs) == "reference"


def test_batched_engine_rejects_rebinding_control():
    class _Rebinding:
        needs = SchedHook.needs
        next_due = 10_000

    request = EngineRequest(machine=object(), threads=[],
                            control=_Rebinding())
    with pytest.raises(ConfigurationError, match="migrate"):
        make_engine(request, mode="batched")


def test_explicit_batched_with_sched_policy_raises():
    spec = ExperimentSpec(mix="mix1", sched_policy="contention",
                          engine_mode="batched", **_FAST)
    with pytest.raises(ConfigurationError):
        run_experiment(spec, use_cache=False)


# -- spec validation ---------------------------------------------------


def test_sched_policy_excludes_rebind():
    spec = ExperimentSpec(mix="mix1", sched_policy="contention",
                          rebind="random", **_FAST)
    with pytest.raises(ConfigurationError, match="migrate"):
        run_experiment(spec, use_cache=False)


def test_sched_epoch_must_be_positive():
    spec = ExperimentSpec(mix="mix1", sched_policy="static",
                          sched_epoch=0, **_FAST)
    with pytest.raises(ConfigurationError, match="sched_epoch"):
        run_experiment(spec, use_cache=False)


def test_unknown_sched_policy_raises():
    spec = ExperimentSpec(mix="mix1", sched_policy="bogus", **_FAST)
    with pytest.raises(ConfigurationError):
        run_experiment(spec, use_cache=False)


@pytest.mark.parametrize("overrides,match", [
    (dict(slots_per_core=2), "single-slot"),
    (dict(rebind="random"), "rebind"),
])
def test_vm_schedule_shape_restrictions(overrides, match):
    spec = ExperimentSpec(mix="mix1", vm_schedule="0,0,0,0",
                          **_FAST, **overrides)
    with pytest.raises(ConfigurationError, match=match):
        run_experiment(spec, use_cache=False)


@pytest.mark.parametrize("schedule,match", [
    ("0,0", "entries"),              # wrong VM count
    ("0,x,0,0", "integer"),          # malformed
    ("0,5000:4000,0,0", "exceed"),   # stop before start
    ("-5,0,0,0", "negative"),
])
def test_vm_schedule_parse_errors(schedule, match):
    spec = ExperimentSpec(mix="mix1", vm_schedule=schedule, **_FAST)
    with pytest.raises(ConfigurationError, match=match):
        run_experiment(spec, use_cache=False)


def test_l2_asym_excludes_quota_owners():
    for policy in ("ucp", "static-equal"):
        spec = ExperimentSpec(mix="mix1", sharing="shared-4",
                              l2_asym="16x2,8x2", qos_policy=policy,
                              **_FAST)
        with pytest.raises(ConfigurationError, match="asym"):
            run_experiment(spec, use_cache=False)


def test_hook_validates_epoch_and_penalty():
    from repro.machine.chip import Chip
    from repro.machine.config import MachineConfig

    chip = Chip(MachineConfig())
    with pytest.raises(ConfigurationError):
        SchedHook(chip, [], StaticPlacement(), epoch=0)
    with pytest.raises(ConfigurationError):
        SchedHook(chip, [], StaticPlacement(), epoch=1000,
                  migration_penalty=-1)


# -- composite control -------------------------------------------------


def test_composite_control_requires_children():
    with pytest.raises(ConfigurationError):
        CompositeControl([])


def test_composite_needs_union_of_children():
    class _Child:
        next_due = 500

        def __init__(self, *needs):
            self.needs = frozenset(needs)

    assert CompositeControl([_Child(QUOTA)]).needs == {QUOTA}
    assert (CompositeControl([_Child(QUOTA), _Child(MIGRATE)]).needs
            == {QUOTA, MIGRATE})
    assert CompositeControl([_Child()]).needs == frozenset()


def test_composite_dispatches_only_due_children():
    calls = []

    class _Child:
        needs = frozenset()

        def __init__(self, name, due):
            self.name = name
            self.next_due = due

        def on_step(self, now):
            calls.append((self.name, now))
            self.next_due = now + 1000

    a, b = _Child("a", 100), _Child("b", 900)
    composite = CompositeControl([a, b])
    assert composite.next_due == 100
    composite.on_step(500)
    assert calls == [("a", 500)]
    composite.on_step(950)
    assert calls == [("a", 500), ("b", 950)]


def test_qos_and_sched_compose_in_one_run():
    spec = ExperimentSpec(mix="mix7", sharing="shared",
                          qos_policy="ucp", sched_policy="contention",
                          **_FAST)
    result = run_experiment(spec, use_cache=False)
    assert result.qos is not None
    assert result.qos["policy"] == "ucp"
    assert result.qos["control_epochs"] > 0
    assert result.sched is not None
    assert result.sched["policy"] == "contention"
    assert result.sched["control_epochs"] > 0


# -- reproducibility ---------------------------------------------------


@pytest.mark.parametrize("overrides", [
    dict(sched_policy="contention"),
    dict(sched_policy="adaptive", slots_per_core=2),
    dict(sched_policy="hetero", core_speeds="1.0x8,0.5x8"),
    dict(sched_policy="contention", vm_schedule="0,0:40000,0,0"),
])
def test_dynamic_policies_reproducible_under_fixed_seed(overrides):
    spec = ExperimentSpec(mix="mix4", **_FAST, **overrides)
    first = run_experiment(spec, use_cache=False)
    second = run_experiment(spec, use_cache=False)
    assert first.final_time == second.final_time
    assert first.sched == second.sched
    assert ([vm.cycles for vm in first.vm_metrics]
            == [vm.cycles for vm in second.vm_metrics])
