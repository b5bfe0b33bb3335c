"""Engine-factory gating for scenario control hooks.

A scenario retargets traces mid-run, so the factory must keep scenario
runs on the reference engines: ``auto`` resolves to ``reference``, and
explicitly requesting the batched kernel is a configuration error —
whether the scenario hook is the control directly or a child of a
:class:`~repro.control.CompositeControl`.  The gate is the hook's
declared ``needs`` (trace retargeting and load scaling), which the
batched engine does not provide.
"""

from itertools import count as _count

import pytest

from repro.control import LOAD_SCALE, RETARGET
from repro.core.experiment import ExperimentSpec, plan
from repro.errors import ConfigurationError
from repro.scenarios.hook import ScenarioHook
from repro.sim import Engine, EngineRequest, make_engine, resolve_mode


class _FakeMachine:
    def access(self, *a, **k):  # pragma: no cover - never driven
        raise AssertionError("not simulated in factory tests")


class _ScenarioControl:
    """Stand-in declaring the scenario hook's needs."""

    needs = ScenarioHook.needs
    next_due = 5_000

    def bind_actuator(self, engine):
        pass

    def on_step(self, now):
        pass

    def finish(self, final_time):
        pass


def _threads(n=1):
    from repro.sim import MemoryReference, ThreadContext

    def stream():
        for block in _count():
            yield MemoryReference(block, 0, 0)

    return [ThreadContext(thread_id=i, vm_id=0, core_id=i,
                          references=stream(), measured_refs=10,
                          warmup_refs=0) for i in range(n)]


class TestResolveMode:
    def test_auto_pins_reference_for_scenarios(self):
        assert ScenarioHook.needs == {RETARGET, LOAD_SCALE}
        assert resolve_mode("auto", ScenarioHook.needs) == "reference"

    def test_auto_still_batches_without_scenario(self):
        assert resolve_mode("auto", frozenset()) == "batched"


class TestMakeEngine:
    def test_scenario_control_builds_reference_engine(self):
        request = EngineRequest(machine=_FakeMachine(), threads=_threads(),
                                control=_ScenarioControl())
        assert isinstance(make_engine(request, mode="auto"), Engine)

    def test_explicit_batched_with_scenario_raises(self):
        request = EngineRequest(machine=_FakeMachine(), threads=_threads(),
                                control=_ScenarioControl())
        with pytest.raises(ConfigurationError, match="load-scale, retarget"):
            make_engine(request, mode="batched")

    def test_composite_child_pins_too(self):
        from repro.control import CompositeControl

        composite = CompositeControl([_ScenarioControl()])
        request = EngineRequest(machine=_FakeMachine(), threads=_threads(),
                                control=composite)
        assert isinstance(make_engine(request, mode="auto"), Engine)
        with pytest.raises(ConfigurationError, match="load-scale, retarget"):
            make_engine(request, mode="batched")


class TestSpecResolution:
    def test_scenario_spec_resolves_auto_to_reference(self):
        spec = ExperimentSpec(mix="scn-diurnal-web", scenario="diurnal-web",
                              engine_mode="auto")
        assert plan(spec).spec.engine_mode == "reference"

    def test_plain_spec_still_batches(self):
        spec = ExperimentSpec(mix="mix4", engine_mode="auto")
        assert plan(spec).spec.engine_mode == "batched"

    def test_explicit_batched_scenario_spec_raises_at_run(self):
        from repro.core.experiment import run_experiment

        spec = ExperimentSpec(mix="scn-phase-flip", scenario="phase-flip",
                              engine_mode="batched", measured_refs=200,
                              warmup_refs=100, seed=1)
        with pytest.raises(ConfigurationError, match="retarget"):
            run_experiment(spec, use_cache=False)
