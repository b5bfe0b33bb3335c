"""Tests for default resolution (``plan(spec).spec``), the retired
environment knobs and the retired spec fields."""

import dataclasses
import warnings
from dataclasses import replace

import pytest

from repro.core.experiment import (
    DEFAULT_MEASURED_REFS,
    DEFAULT_SEED,
    ExperimentSpec,
    plan,
    spec_from_dict,
)
from repro.errors import ConfigurationError


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_REFS", raising=False)
    monkeypatch.delenv("REPRO_SEED", raising=False)


class TestResolution:
    def test_builtin_defaults_without_env(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning expected
            resolved = plan(ExperimentSpec(mix="mixA")).spec
        assert resolved.measured_refs == DEFAULT_MEASURED_REFS
        assert resolved.warmup_refs == DEFAULT_MEASURED_REFS // 2
        assert resolved.seed == DEFAULT_SEED

    def test_explicit_fields_ignore_env(self, monkeypatch):
        # explicitly-filled specs never consult the environment, so the
        # retired knobs are not even rejected
        monkeypatch.setenv("REPRO_REFS", "777")
        monkeypatch.setenv("REPRO_SEED", "9")
        spec = ExperimentSpec(mix="mixA", measured_refs=1000,
                              warmup_refs=200, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolved = plan(spec).spec
        assert resolved.measured_refs == 1000
        assert resolved.warmup_refs == 200
        assert resolved.seed == 3

    def test_idempotent(self):
        resolved = plan(ExperimentSpec(mix="mixA")).spec
        assert plan(resolved).spec == resolved

    def test_sharing_canonicalized(self):
        resolved = plan(
            ExperimentSpec(mix="mixA", sharing="fully-shared", seed=1,
                           measured_refs=100)).spec
        assert resolved.sharing == "shared"

    def test_engine_mode_resolves_to_concrete(self):
        resolved = plan(
            ExperimentSpec(mix="mixA", measured_refs=100, seed=1,
                           engine_mode="auto")).spec
        assert resolved.engine_mode in ("reference", "batched")

    @pytest.mark.parametrize("fields", [
        dict(measured_refs=0), dict(measured_refs=-5),
        dict(measured_refs=100, warmup_refs=-3),
    ])
    def test_invalid_run_sizes_rejected(self, fields):
        # only None means "default": a zero or negative size is refused
        # instead of silently running the built-in size
        with pytest.raises(ConfigurationError, match="_refs must be"):
            plan(ExperimentSpec(mix="mixA", seed=1, **fields))

    @pytest.mark.parametrize("fields, message", [
        (dict(l2_replacement="bogus"), "unknown replacement policy"),
        (dict(rebind="bogus"), "unknown rebinder"),
        (dict(core_speeds="garbage"), "core-speed spec"),
        (dict(mix="iso-tpch", vm_schedule="x,y"),
         "vm_schedule has 2 entries for 1 VMs"),
        (dict(l2_asym="zz"), "L2-associativity spec"),
        (dict(num_cores=3), "square mesh"),
        (dict(scale=-1.0), "scale factor must be positive"),
        (dict(slots_per_core=0), "slots_per_core must be positive"),
        (dict(dir_cache_entries=7), "not divisible"),
        # each of these used to pass resolution and fail only in the run
        (dict(rebind="random", rebind_interval=0),
         "rebind_interval must be positive"),
        (dict(qos_policy="target-slowdown", qos_target=0.0),
         "needs a positive qos_target"),
        (dict(mix="mix4", vm_schedule="0,-5,0,0"),
         "vm_schedule start -5 for VM 1 is negative"),
        (dict(scale=float("nan")), "scale factor must be positive"),
        (dict(engine_mode="batched", slots_per_core=2),
         "engine BatchedEngine does not provide run-queue requeue"),
    ])
    def test_unbuildable_machine_fields_rejected(self, fields, message):
        # what the run would refuse before simulating is refused here
        fields = {"mix": "mixA", **fields}
        with pytest.raises(ConfigurationError, match=message):
            plan(ExperimentSpec(measured_refs=100, seed=1, **fields))

    def test_arrival_only_schedule_runs_on_explicit_batched(self):
        # batched honours start times (a 5000-cycle arrival adds exactly
        # 5000 cycles to that VM); only departures need the reference
        from repro.core.experiment import run_experiment

        base = ExperimentSpec(mix="mix4", engine_mode="batched",
                              measured_refs=300, seed=1)
        late = replace(base, vm_schedule="0,5000,0,0")
        assert plan(late).spec.engine_mode == "batched"
        steady, arrived = (
            [vm.cycles for vm in run_experiment(spec, use_cache=False)
             .vm_metrics] for spec in (base, late))
        assert arrived == [c + (5000 if vm == 1 else 0)
                           for vm, c in enumerate(steady)]

    def test_reference_mode_preserved(self):
        resolved = plan(
            ExperimentSpec(mix="mixA", measured_refs=100, seed=1,
                           engine_mode="reference")).spec
        assert resolved.engine_mode == "reference"


class TestRetiredEnvKnobs:
    """The REPRO_REFS / REPRO_SEED shim is gone: a defaulted spec with
    one of the old knobs set fails loudly instead of silently ignoring
    (or silently honouring) it."""

    def test_repro_refs_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFS", "4321")
        with pytest.raises(ConfigurationError, match="REPRO_REFS"):
            plan(ExperimentSpec(mix="mixA", seed=1))

    def test_repro_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "17")
        with pytest.raises(ConfigurationError, match="REPRO_SEED"):
            plan(ExperimentSpec(mix="mixA", measured_refs=100))

    def test_error_names_the_spec_field(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFS", "100")
        with pytest.raises(ConfigurationError,
                           match="ExperimentSpec.measured_refs"):
            plan(ExperimentSpec(mix="mixA", seed=1))


class TestRetiredFields:
    """``l2_vm_quota`` and ``start_stagger`` restated other fields and
    are gone; a dict from outside the program that names one loads only
    while it holds the old default."""

    def test_spec_has_24_fields_without_the_retired_ones(self):
        names = {f.name for f in dataclasses.fields(ExperimentSpec)}
        assert len(names) == 24
        assert not names & {"l2_vm_quota", "start_stagger"}

    def test_old_defaults_are_dropped(self):
        spec = spec_from_dict({"mix": "mix1", "l2_vm_quota": False,
                               "start_stagger": 0})
        assert spec == ExperimentSpec(mix="mix1")

    @pytest.mark.parametrize("fields, replacement", [
        ({"l2_vm_quota": True}, "qos_policy='static-equal'"),
        ({"l2_vm_quota": 0}, "qos_policy='static-equal'"),
        ({"start_stagger": 20000}, "vm_schedule="),
        ({"start_stagger": -100}, "vm_schedule="),
        ({"start_stagger": False}, "vm_schedule="),
    ])
    def test_other_values_name_the_replacement(self, fields, replacement):
        with pytest.raises(ConfigurationError, match="retired") as exc:
            spec_from_dict({"mix": "mix1", **fields})
        assert replacement in str(exc.value)


def test_phase_plan_is_one_plan_per_vm():
    # the hypervisor has one phase path: per-VM plans
    run = plan(ExperimentSpec(mix="mix5", measured_refs=100, seed=1,
                              phase_plan="burst"))
    assert len(run.vm_phases) == 4
    assert len({id(vm_plan) for vm_plan in run.vm_phases}) == 1
