"""Tests for the unified engine factory."""

import itertools

import numpy as _np
import pytest

from repro.control import CAPABILITIES, MIGRATE, REQUEUE
from repro.core.experiment import ExperimentSpec, plan
from repro.core.store import result_from_dict, result_to_dict
from repro.errors import ConfigurationError
from repro.sim import (
    BatchedEngine,
    Engine,
    EngineRequest,
    MigratingEngine,
    OvercommitEngine,
    RandomRebinder,
    engine_modes,
    make_engine,
    resolve_mode,
)


class _FakeMachine:
    """Just enough machine for reference-engine construction."""

    def access(self, *a, **k):  # pragma: no cover - never driven
        raise AssertionError("not simulated in factory tests")


def _threads(count=1):
    from itertools import count as _count

    from repro.sim import MemoryReference, ThreadContext

    def stream():
        for block in _count():
            yield MemoryReference(block, 0, 0)

    return [
        ThreadContext(thread_id=i, vm_id=0, core_id=i,
                      references=stream(), measured_refs=10,
                      warmup_refs=0)
        for i in range(count)
    ]


class TestResolveMode:
    def test_unknown_mode_raises_and_names_choices(self):
        with pytest.raises(ConfigurationError, match="unknown engine mode"):
            resolve_mode("warp-speed")
        with pytest.raises(ConfigurationError, match="batched"):
            resolve_mode("warp-speed")

    def test_auto_prefers_batched_for_plain_shape(self):
        assert resolve_mode("auto") == "batched"

    def test_auto_falls_back_for_overcommit(self):
        assert resolve_mode("auto", {REQUEUE}) == "reference"

    def test_auto_falls_back_for_rebind(self):
        assert resolve_mode("auto", {MIGRATE}) == "reference"

    def test_auto_batches_needs_the_batched_engine_provides(self):
        assert resolve_mode("auto", BatchedEngine.provides) == "batched"

    def test_concrete_modes_pass_through(self):
        assert resolve_mode("reference") == "reference"
        assert resolve_mode("batched") == "batched"

    def test_modes_listing_leads_with_auto(self):
        assert engine_modes() == ["auto", "batched", "reference"]


class TestMakeEngine:
    def test_reference_plain_shape_builds_engine(self):
        engine = make_engine(
            EngineRequest(machine=_FakeMachine(), threads=_threads()),
            mode="reference")
        assert isinstance(engine, Engine)

    def test_reference_overcommit_builds_overcommit(self):
        engine = make_engine(
            EngineRequest(machine=_FakeMachine(), threads=_threads(),
                          slots_per_core=2),
            mode="reference")
        assert isinstance(engine, OvercommitEngine)

    def test_reference_rebinder_builds_migrating(self):
        engine = make_engine(
            EngineRequest(machine=_FakeMachine(), threads=_threads(),
                          rebinder=RandomRebinder(1, _np.random.default_rng(0))),
            mode="reference")
        assert isinstance(engine, MigratingEngine)

    def test_batched_rejects_overcommit(self):
        with pytest.raises(ConfigurationError, match="run-queue requeue"):
            make_engine(
                EngineRequest(machine=_FakeMachine(), threads=_threads(),
                              slots_per_core=2),
                mode="batched")

    def test_batched_rejects_rebinder(self):
        with pytest.raises(ConfigurationError, match="migrate"):
            make_engine(
                EngineRequest(machine=_FakeMachine(), threads=_threads(),
                              rebinder=RandomRebinder(1, _np.random.default_rng(0))),
                mode="batched")

    def test_auto_with_overcommit_resolves_to_reference(self):
        engine = make_engine(
            EngineRequest(machine=_FakeMachine(), threads=_threads(),
                          slots_per_core=2),
            mode="auto")
        assert isinstance(engine, OvercommitEngine)


class TestSpecRoundTrip:
    def test_engine_mode_survives_store_codec(self):
        spec = ExperimentSpec(mix="mixA", measured_refs=200, seed=1,
                              engine_mode="batched")
        from repro.core.experiment import run_experiment

        result = run_experiment(spec, use_cache=False)
        revived = result_from_dict(result_to_dict(result))
        assert revived.spec.engine_mode == "batched"
        assert revived.spec == plan(spec).spec

    def test_auto_resolves_before_hashing(self):
        # the store must never key on the ambiguous "auto"
        resolved = plan(
            ExperimentSpec(mix="mixA", measured_refs=200, seed=1,
                           engine_mode="auto")).spec
        assert resolved.engine_mode != "auto"


class _NeedsControl:
    """A control hook declaring an arbitrary set of needs."""

    next_due = 10_000

    def __init__(self, *needs):
        self.needs = frozenset(needs)
        self.bound = None

    def bind_actuator(self, engine):
        self.bound = engine

    def on_step(self, now):
        pass

    def finish(self, final_time):
        pass


def _request_for(engine_cls, control):
    """A request the factory builds as ``engine_cls`` (and its mode)."""
    request = EngineRequest(machine=_FakeMachine(), threads=_threads(),
                            control=control)
    if engine_cls is OvercommitEngine:
        request.slots_per_core = 2
    elif engine_cls is MigratingEngine:
        request.rebinder = RandomRebinder(1, _np.random.default_rng(0))
    return request, "batched" if engine_cls is BatchedEngine else "reference"


_ENGINES = (Engine, OvercommitEngine, MigratingEngine, BatchedEngine)


class TestCapabilityCheck:
    @pytest.mark.parametrize("engine_cls,capability", [
        (cls, cap) for cls in _ENGINES
        for cap in sorted(CAPABILITIES - cls.provides)
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_missing_capability_is_named(self, engine_cls, capability):
        request, mode = _request_for(engine_cls, _NeedsControl(capability))
        with pytest.raises(ConfigurationError) as info:
            make_engine(request, mode=mode)
        assert engine_cls.__name__ in str(info.value)
        assert capability in str(info.value)

    @pytest.mark.parametrize("engine_cls", [Engine, OvercommitEngine,
                                            MigratingEngine])
    def test_provided_needs_build_and_bind(self, engine_cls):
        control = _NeedsControl(MIGRATE)
        request, mode = _request_for(engine_cls, control)
        engine = make_engine(request, mode=mode)
        assert type(engine) is engine_cls
        assert control.bound is engine

    def test_rebind_with_core_speeds_is_refused(self):
        # MigratingEngine never reads the chip's core speeds; the run
        # used to finish with the speeds silently dropped
        from repro.core.experiment import run_experiment

        spec = ExperimentSpec(mix="mix1", rebind="random",
                              core_speeds="1.0x8,0.5x8", measured_refs=300,
                              seed=3)
        with pytest.raises(ConfigurationError, match="core speeds"):
            run_experiment(spec, use_cache=False)

    def test_rebind_with_asymmetric_l2_still_runs(self):
        # the chip actuates asymmetric L2 domains for every reference
        # engine, the migrating one included
        from repro.core.experiment import run_experiment

        spec = ExperimentSpec(mix="mix1", sharing="shared-4",
                              rebind="random", l2_asym="16x2,8x2",
                              measured_refs=300, seed=3)
        assert run_experiment(spec, use_cache=False).final_time > 0


def _shape_grid():
    """Every combination of the control and shape axes a spec can set."""
    axes = dict(
        sched_policy=("", "contention"),
        scenario=("", "churn-storm"),
        qos_policy=("", "ucp"),
        vm_schedule=("", "0,0:40000,0,0"),
        core_speeds=("", "1.0x8,0.5x8"),
        l2_asym=("", "16x2,8x2"),
        slots_per_core=(1, 2),
        rebind=("", "random"),
    )
    for values in itertools.product(*axes.values()):
        yield dict(zip(axes, values))


class TestAutoAgreesWithFactory:
    """``plan`` (spec level) and ``make_engine`` (request level) both
    derive a run's needs through :func:`repro.sim.factory.run_needs`;
    under ``auto`` they must pick the same engine class for every
    accepted spec shape.  ``plan`` refuses the other shapes before
    ``make_engine`` is called, so 51 of the grid's 256 are compared."""

    def test_spec_and_request_resolution_agree(self, monkeypatch):
        from repro.core import experiment
        from repro.scenarios import get_scenario

        real = experiment.make_engine

        class _Built(Exception):
            pass

        def outcome(request, mode):
            try:
                return type(real(request, mode=mode)).__name__
            except ConfigurationError as exc:
                return f"refused: {exc}"

        def compare(request, mode):
            raise _Built(outcome(request, mode), outcome(request, "auto"))

        monkeypatch.setattr(experiment, "make_engine", compare)
        compared = 0
        for shape in _shape_grid():
            mix = (get_scenario(shape["scenario"]).mix_name
                   if shape["scenario"] else "mix4")
            spec = ExperimentSpec(mix=mix, sharing="shared-4",
                                  engine_mode="auto", measured_refs=200,
                                  warmup_refs=0, seed=1, **shape)
            try:
                experiment.run_experiment(spec, use_cache=False)
            except _Built as built:
                resolved, auto = built.args
                assert resolved == auto, (shape, resolved, auto)
                compared += 1
            except ConfigurationError:
                continue  # the spec itself is invalid: never built
        assert compared >= 40

    def test_arrival_only_schedule_stays_on_reference(self):
        # a spec-level vm_schedule counts as churn even when no VM
        # departs, so such specs keep the engine (and store key) they
        # always had; the request level sees no stop time
        spec = ExperimentSpec(mix="mix4", vm_schedule="0,1000,0,0",
                              engine_mode="auto")
        assert plan(spec).spec.engine_mode == "reference"
        assert resolve_mode("auto", set()) == "batched"
