"""Tests for the Section VII future-work extensions.

Over-committed assignment, start-time staggering, custom mixes, and
larger machines — all wired through the experiment spec.
"""

import pytest

from repro.core.experiment import ExperimentSpec, clear_result_cache, run_experiment
from repro.core.mixes import Mix, get_mix, register_mix
from repro.core.scheduling import assign_overcommitted
from repro.errors import ConfigurationError, SchedulingError
from repro.interconnect.topology import MeshTopology
from repro.machine.config import MachineConfig, SharingDegree
from repro.machine.placement import DomainPlacement
from repro.sim.rng import RngFactory

REFS = dict(measured_refs=800, warmup_refs=200)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


def placement():
    config = MachineConfig(sharing=SharingDegree.SHARED_4)
    return DomainPlacement(config, MeshTopology(4, 4))


class TestOvercommittedAssignment:
    def test_cores_repeat_up_to_slots(self):
        assign = assign_overcommitted("rr", [4] * 8, placement(),
                                      slots_per_core=2)
        flat = [core for cores in assign for core in cores]
        assert len(flat) == 32
        for core in set(flat):
            assert flat.count(core) <= 2

    def test_capacity_enforced(self):
        with pytest.raises(SchedulingError):
            assign_overcommitted("rr", [4] * 9, placement(), slots_per_core=2)

    def test_bad_slots(self):
        with pytest.raises(SchedulingError):
            assign_overcommitted("rr", [4], placement(), slots_per_core=0)

    def test_random_policy_supported(self):
        assign = assign_overcommitted(
            "random", [4] * 6, placement(), slots_per_core=2,
            rng=RngFactory(1).stream("s"))
        assert sum(len(cores) for cores in assign) == 24


class TestOvercommitExperiments:
    def test_overcommit_run_completes(self):
        result = run_experiment(ExperimentSpec(
            mix="mix5", slots_per_core=2, policy="random", seed=1, **REFS))
        assert len(result.vm_metrics) == 4
        assert all(vm.refs == 4 * 800 for vm in result.vm_metrics)

    def test_overcommit_slower_than_dedicated(self):
        """Sharing cores costs throughput: the over-committed run's
        completion is later than the dedicated-core run's."""
        dedicated = run_experiment(ExperimentSpec(
            mix="mix5", policy="affinity", seed=1, **REFS))
        packed = run_experiment(ExperimentSpec(
            mix="mix5", slots_per_core=4, policy="affinity", seed=1, **REFS))
        assert (max(vm.cycles for vm in packed.vm_metrics)
                > max(vm.cycles for vm in dedicated.vm_metrics))


class TestStartStagger:
    """Staggered starts are a ``vm_schedule`` of arrivals."""

    def test_staggered_vms_finish_in_order(self):
        result = run_experiment(ExperimentSpec(
            mix="mixB", vm_schedule="0,50000,100000,150000", seed=1,
            **REFS))
        cycles = [vm.cycles for vm in result.vm_metrics]
        assert cycles == sorted(cycles)
        assert cycles[-1] - cycles[0] > 100_000

    def test_zero_stagger_unchanged(self):
        a = run_experiment(ExperimentSpec(mix="mixB", seed=1, **REFS))
        b = run_experiment(ExperimentSpec(mix="mixB", vm_schedule="0,0,0,0",
                                          seed=1, **REFS), use_cache=False)
        assert [vm.cycles for vm in a.vm_metrics] == [
            vm.cycles for vm in b.vm_metrics]


class TestCustomMixes:
    def test_register_and_run(self):
        register_mix(Mix("test-duo", (("tpch", 2),)), overwrite=True)
        result = run_experiment(ExperimentSpec(mix="test-duo", seed=1, **REFS))
        assert result.workloads == ["tpch", "tpch"]

    def test_table_iv_names_protected(self):
        with pytest.raises(ConfigurationError, match="collides"):
            register_mix(Mix("mix1", (("tpch", 1),)))

    def test_duplicate_registration_rejected(self):
        register_mix(Mix("test-dup", (("tpcw", 1),)), overwrite=True)
        with pytest.raises(ConfigurationError, match="already"):
            register_mix(Mix("test-dup", (("tpcw", 1),)))

    def test_lookup_is_case_insensitive(self):
        register_mix(Mix("Test-Case", (("tpch", 1),)), overwrite=True)
        assert get_mix("test-case").name == "Test-Case"


class TestLargerMachines:
    def test_64_core_machine_runs(self):
        """Section VII's scaling direction: an 8x8 mesh works end to
        end with Table IV mixes (48 cores idle)."""
        result = run_experiment(ExperimentSpec(
            mix="mix5", num_cores=64, seed=1, **REFS))
        assert len(result.vm_metrics) == 4
        assert result.chip_summary.mesh_mean_hops > 0

    def test_64_core_memory_tiles_at_corners(self):
        config = MachineConfig(num_cores=64)
        assert config.memory_tiles == (0, 7, 56, 63)

    def test_non_square_still_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cores=24)

    def test_16_instance_mix_fills_64_cores(self):
        register_mix(Mix("big-mix", (("tpch", 8), ("specjbb", 8))),
                     overwrite=True)
        result = run_experiment(ExperimentSpec(
            mix="big-mix", num_cores=64, seed=1,
            measured_refs=400, warmup_refs=100))
        assert len(result.vm_metrics) == 16
