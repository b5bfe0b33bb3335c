"""Tests for the experiment runner (integration level, small runs)."""

import pytest

from repro.core.experiment import (
    ExperimentSpec,
    clear_result_cache,
    plan,
    resolve_mix,
    run_experiment,
)
from repro.errors import ConfigurationError

REFS = dict(measured_refs=1500, warmup_refs=500)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


class TestSpec:
    def test_normalized_fills_defaults(self):
        spec = plan(ExperimentSpec(mix="mixA")).spec
        assert spec.measured_refs > 0
        assert spec.warmup_refs == spec.measured_refs // 2
        assert spec.seed != 0

    def test_sharing_canonicalized(self):
        spec = plan(ExperimentSpec(mix="mixA", sharing="fully-shared")).spec
        assert spec.sharing == "shared"

    def test_bad_sharing_rejected(self):
        with pytest.raises(ConfigurationError):
            plan(ExperimentSpec(mix="mixA", sharing="shared-5"))

    def test_resolve_mix_iso(self):
        assert resolve_mix("iso-tpch").name == "iso-tpch"
        assert resolve_mix("mix4").name == "mix4"


@pytest.fixture
def builds(monkeypatch):
    """Count :class:`RunPlan` and :class:`MachineConfig` constructions,
    starting from a cold machine memo."""
    from repro.core import experiment
    from repro.machine.config import MachineConfig

    counts = {"plans": 0, "configs": 0}

    def count(cls, name):
        real = cls.__init__

        def init(self, *args, **kwargs):
            counts[name] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    count(experiment.RunPlan, "plans")
    count(MachineConfig, "configs")
    experiment._scaled_machine.cache_clear()
    return counts


class TestOneResolution:
    """A run plans its spec once: no layer re-derives a spec's facts on
    the way to the engine or the store."""

    SPEC = ExperimentSpec(mix="mix5", measured_refs=300, seed=1)

    def test_cold_run_plans_once(self, builds):
        from repro.core.store import ResultStore

        run_experiment(self.SPEC, store=ResultStore())
        assert builds["plans"] == 1
        assert builds["configs"] <= 2  # the machine and its scaled copy

    def test_store_hit_plans_once(self, builds):
        from repro.core.store import ResultStore

        store = ResultStore()
        first = run_experiment(self.SPEC, store=store)
        builds["plans"] = 0
        assert run_experiment(self.SPEC, store=store) is first
        assert builds["plans"] == 1

    def test_a_plan_runs_without_replanning(self, builds):
        from repro.core.experiment import plan
        from repro.core.store import ResultStore, spec_key

        run = plan(self.SPEC)
        store = ResultStore()
        assert spec_key(run) == run.key
        run_experiment(run, store=store)
        assert store.get_by_key(run.key) is not None
        assert builds["plans"] == 1

    def test_executor_plans_each_cell_once(self, builds):
        from repro.core.executor import SweepExecutor
        from repro.core.store import ResultStore

        store = ResultStore()
        cells = [(("cell",), self.SPEC)]
        SweepExecutor(store=store).run(cells)
        # one plan in the parent; the inline cell runs that plan
        assert builds["plans"] == 1
        builds["plans"] = 0
        assert SweepExecutor(store=store).run(cells)[0].from_cache
        assert builds["plans"] == 1


class TestRunExperiment:
    def test_isolation_run_shape(self):
        result = run_experiment(
            ExperimentSpec(mix="iso-tpch", seed=1, **REFS))
        assert len(result.vm_metrics) == 1
        vm = result.vm_metrics[0]
        assert vm.workload == "tpch"
        assert vm.refs == 4 * 1500
        assert vm.cycles > 0

    def test_mix_run_has_four_vms(self):
        result = run_experiment(ExperimentSpec(mix="mix5", seed=1, **REFS))
        assert result.workloads == ["specjbb", "specjbb", "tpch", "tpch"]
        assert all(vm.cycles > 0 for vm in result.vm_metrics)

    def test_determinism(self):
        a = run_experiment(ExperimentSpec(mix="mixB", seed=7, **REFS),
                           use_cache=False)
        b = run_experiment(ExperimentSpec(mix="mixB", seed=7, **REFS),
                           use_cache=False)
        assert [vm.cycles for vm in a.vm_metrics] == [
            vm.cycles for vm in b.vm_metrics]
        assert [vm.l2_misses for vm in a.vm_metrics] == [
            vm.l2_misses for vm in b.vm_metrics]

    def test_seed_changes_results(self):
        a = run_experiment(ExperimentSpec(mix="mixB", seed=1, **REFS))
        b = run_experiment(ExperimentSpec(mix="mixB", seed=2, **REFS))
        assert [vm.cycles for vm in a.vm_metrics] != [
            vm.cycles for vm in b.vm_metrics]

    def test_memoization(self):
        spec = ExperimentSpec(mix="iso-tpch", seed=3, **REFS)
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a is b

    def test_snapshots_populated(self):
        result = run_experiment(
            ExperimentSpec(mix="mix5", sharing="shared-4", seed=1, **REFS))
        assert len(result.occupancy) == 4
        assert len(result.residency) == 4
        assert result.domain_lines > 0
        assert any(result.occupancy)

    def test_chip_summary_consistency(self):
        result = run_experiment(ExperimentSpec(mix="mixC", seed=1, **REFS))
        summary = result.chip_summary
        assert summary.mesh_mean_latency > 0
        assert 0 <= summary.directory_cache_hit_rate <= 1
        assert summary.memory_reads > 0

    def test_helpers(self):
        result = run_experiment(ExperimentSpec(mix="mix5", seed=1, **REFS))
        jbb = result.metrics_for("specjbb")
        assert len(jbb) == 2
        assert result.mean_cycles("specjbb") > 0
        assert result.mean_miss_rate("tpch") >= 0
        assert result.mean_miss_latency("tpch") > 0


class TestPolicySweepSanity:
    def test_all_policies_run(self):
        for policy in ("rr", "affinity", "rr-aff", "random"):
            result = run_experiment(
                ExperimentSpec(mix="iso-tpch", policy=policy, seed=1, **REFS))
            assert result.vm_metrics[0].refs == 6000

    def test_all_sharings_run(self):
        for sharing in ("private", "shared-2", "shared-4", "shared-8", "shared"):
            result = run_experiment(
                ExperimentSpec(mix="iso-tpch", sharing=sharing, seed=1, **REFS))
            assert result.vm_metrics[0].cycles > 0

    def test_replacement_ablation_runs(self):
        for repl in ("lru", "fifo", "random"):
            result = run_experiment(
                ExperimentSpec(mix="iso-tpch", l2_replacement=repl, seed=1,
                               **REFS))
            assert result.vm_metrics[0].cycles > 0
