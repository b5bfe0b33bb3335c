"""Tests for dynamic thread rebinding (migration)."""

import itertools

import pytest

from repro.errors import SimulationError
from repro.sim.dynamic import AffinityRebinder, MigratingEngine, RandomRebinder
from repro.sim.engine import ThreadContext
from repro.sim.records import AccessResult, HitLevel
from repro.sim.rng import RngFactory


class RecordingMachine:
    def __init__(self, latency=9):
        self.latency = latency
        self.calls = []
        self.bindings = []

    def access(self, core_id, block, is_write, now):
        self.calls.append((core_id, now))
        return AccessResult(HitLevel.L0, self.latency, self.latency, 0, 0, 0)

    def bind_core_to_vm(self, core, vm):
        self.bindings.append((core, vm))


def refs():
    return itertools.cycle([(1, 0, 0)])


def thread(tid, vm=0, core=0, measured=500):
    return ThreadContext(tid, vm, core, refs(), measured_refs=measured)


class FixedRebinder:
    """Moves thread 0 to a given core once, then does nothing."""

    def __init__(self, target_core):
        self.target_core = target_core
        self.fired = False

    def rebind(self, now, threads):
        if self.fired:
            return {}
        self.fired = True
        return {0: self.target_core}


class ConflictingRebinder:
    def rebind(self, now, threads):
        return {t.thread_id: 5 for t in threads}


class TestMigratingEngine:
    def test_migration_changes_issuing_core(self):
        machine = RecordingMachine()
        engine = MigratingEngine(machine, [thread(0, core=0, measured=400)],
                                 rebinder=FixedRebinder(7), interval=500,
                                 migration_penalty=0)
        engine.run()
        cores = {c for c, _t in machine.calls}
        assert cores == {0, 7}
        assert engine.migrations == 1

    def test_migration_penalty_delays_next_issue(self):
        def final_time(penalty):
            machine = RecordingMachine()
            engine = MigratingEngine(
                machine, [thread(0, measured=400)],
                rebinder=FixedRebinder(7), interval=500,
                migration_penalty=penalty)
            return max(engine.run().vm_completion_times.values())

        assert final_time(50_000) > final_time(0)

    def test_vm_binding_updated_on_migration(self):
        machine = RecordingMachine()
        engine = MigratingEngine(machine, [thread(0, vm=3, measured=400)],
                                 rebinder=FixedRebinder(7), interval=500)
        engine.run()
        assert (7, 3) in machine.bindings

    def test_conflicting_rebind_rejected(self):
        machine = RecordingMachine()
        engine = MigratingEngine(
            machine,
            [thread(0, core=0, measured=300), thread(1, core=1, measured=300)],
            rebinder=ConflictingRebinder(), interval=500)
        with pytest.raises(SimulationError, match="conflict"):
            engine.run()

    def test_stats_complete_despite_migration(self):
        machine = RecordingMachine()
        engine = MigratingEngine(machine, [thread(0, measured=400)],
                                 rebinder=FixedRebinder(3), interval=300)
        result = engine.run()
        assert result.thread_stats[0].refs == 400

    def test_validation(self):
        with pytest.raises(SimulationError):
            MigratingEngine(RecordingMachine(), [], FixedRebinder(1))
        with pytest.raises(SimulationError):
            MigratingEngine(RecordingMachine(), [thread(0)],
                            FixedRebinder(1), interval=0)
        with pytest.raises(SimulationError):
            MigratingEngine(RecordingMachine(),
                            [thread(0, core=2), thread(1, core=2)],
                            FixedRebinder(1))


class TestRandomRebinder:
    def test_permutation_is_conflict_free(self):
        rb = RandomRebinder(16, RngFactory(1).stream("r"))
        threads = [thread(i, core=i) for i in range(10)]
        moves = rb.rebind(0, threads)
        new_cores = [moves.get(t.thread_id, t.core_id) for t in threads]
        assert len(set(new_cores)) == len(new_cores)

    def test_deterministic_per_stream(self):
        a = RandomRebinder(16, RngFactory(1).stream("r")).rebind(
            0, [thread(i, core=i) for i in range(8)])
        b = RandomRebinder(16, RngFactory(1).stream("r")).rebind(
            0, [thread(i, core=i) for i in range(8)])
        assert a == b


class TestAffinityRebinder:
    def test_consolidates_scattered_vm(self):
        # 4 domains of 4 cores (0-3, 4-7, 8-11, 12-15 for simplicity)
        domain_of = [i // 4 for i in range(16)]
        cores_of = [[4 * d + j for j in range(4)] for d in range(4)]
        rb = AffinityRebinder(domain_of, cores_of)
        # VM 0 scattered across all domains
        threads = [thread(i, vm=0, core=i * 4) for i in range(4)]
        moves = rb.rebind(0, threads)
        new_cores = [moves.get(t.thread_id, t.core_id) for t in threads]
        domains = {domain_of[c] for c in new_cores}
        assert len(domains) == 1

    def test_already_affine_vm_untouched(self):
        domain_of = [i // 4 for i in range(16)]
        cores_of = [[4 * d + j for j in range(4)] for d in range(4)]
        rb = AffinityRebinder(domain_of, cores_of)
        threads = [thread(i, vm=0, core=i) for i in range(4)]
        moves = rb.rebind(0, threads)
        # threads may be shuffled within the domain but never leave it
        for tid, core in moves.items():
            assert domain_of[core] == 0


class TestSpecIntegration:
    def test_rebind_through_spec(self):
        from repro.core.experiment import (
            ExperimentSpec, clear_result_cache, run_experiment)
        clear_result_cache()
        result = run_experiment(ExperimentSpec(
            mix="iso-tpch", rebind="random", rebind_interval=30_000,
            seed=1, measured_refs=1200, warmup_refs=300))
        assert result.vm_metrics[0].refs == 4800
        clear_result_cache()

    def test_rebind_and_overcommit_conflict(self):
        from repro.core.experiment import ExperimentSpec, run_experiment
        from repro.errors import ConfigurationError
        # the migrating engine has no run queues: the factory refuses
        with pytest.raises(ConfigurationError, match="run-queue requeue"):
            run_experiment(ExperimentSpec(
                mix="iso-tpch", rebind="random", slots_per_core=2,
                seed=1, measured_refs=200, warmup_refs=0), use_cache=False)
