"""Tests for the parallel sweep executor.

Includes the tier-1 parallel smoke test (a 2x2 suite at ``jobs=2`` with
a tiny reference budget) so the multiprocessing path is exercised on
every ``pytest -x -q`` run.
"""

import multiprocessing

import pytest

from repro.core.executor import CellOutcome, SweepExecutor
from repro.core.experiment import ExperimentSpec
from repro.core.store import ResultStore, set_default_store
from repro.core.suite import (ExperimentSuite, SuiteRunner, mixes_suite,
                              sharing_policy_suite)
from repro.errors import ConfigurationError

TINY = dict(measured_refs=300, warmup_refs=100, seed=1)


@pytest.fixture(autouse=True)
def isolated_default_store():
    previous = set_default_store(ResultStore())
    yield
    set_default_store(previous)


def grid_cells(mix="iso-tpch", sharings=("private", "shared-4"),
               policies=("rr", "affinity")):
    return [
        ((sharing, policy),
         ExperimentSpec(mix=mix, sharing=sharing, policy=policy, **TINY))
        for sharing in sharings
        for policy in policies
    ]


def metrics_of(outcome: CellOutcome):
    return [(vm.cycles, vm.l2_misses, vm.miss_latency_cycles)
            for vm in outcome.result.vm_metrics]


class TestSerialExecution:
    def test_outcomes_in_input_order(self):
        cells = grid_cells()
        outcomes = SweepExecutor(jobs=1, store=ResultStore()).run(cells)
        assert [o.key for o in outcomes] == [key for key, _spec in cells]
        assert all(o.ok for o in outcomes)
        assert all(o.wall_time > 0 for o in outcomes)

    def test_store_satisfies_second_run(self):
        store = ResultStore()
        executor = SweepExecutor(jobs=1, store=store)
        cells = grid_cells()
        first = executor.run(cells)
        second = executor.run(cells)
        assert all(not o.from_cache for o in first)
        assert all(o.from_cache for o in second)
        assert [metrics_of(a) for a in first] == [
            metrics_of(b) for b in second]

    def test_duplicate_specs_simulate_once(self):
        store = ResultStore()
        spec = ExperimentSpec(mix="iso-tpch", **TINY)
        outcomes = SweepExecutor(jobs=1, store=store).run(
            [(("a",), spec), (("b",), spec)])
        assert store.stats.writes == 1
        assert all(o.ok for o in outcomes)
        assert metrics_of(outcomes[0]) == metrics_of(outcomes[1])

    def test_progress_callback(self):
        seen = []
        executor = SweepExecutor(
            jobs=1, store=ResultStore(),
            progress=lambda done, total, outcome: seen.append(
                (done, total, outcome.key)))
        executor.run(grid_cells())
        assert [s[0] for s in seen] == [1, 2, 3, 4]
        assert all(s[1] == 4 for s in seen)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=0)


class TestFailureIsolation:
    def test_failed_cell_does_not_abort_grid(self):
        cells = grid_cells()
        cells.insert(1, (("bad",), ExperimentSpec(mix="mix99", **TINY)))
        outcomes = SweepExecutor(jobs=1, store=ResultStore()).run(cells)
        assert [o.ok for o in outcomes] == [True, False, True, True, True]
        bad = outcomes[1]
        assert bad.result is None
        assert "unknown mix" in bad.error
        assert bad.wall_time >= 0

    def test_suite_reports_failures_after_full_grid(self):
        base = ExperimentSpec(mix="iso-tpch", **TINY)
        suite = mixes_suite(["mix99", "iso-tpch"], base=base)
        outcome = SuiteRunner(store=ResultStore()).run(suite)
        # the failing first cell does not stop the rest of the grid
        assert list(outcome.results) == [("iso-tpch",)]
        assert list(outcome.failures) == [("mix99",)]
        assert "unknown mix" in outcome.failures[("mix99",)]


class TestParallelExecution:
    def test_parallel_smoke_2x2_suite(self):
        """Tier-1 smoke: 2x2 suite, jobs=2, tiny measured_refs."""
        suite = ExperimentSuite.build(
            "smoke",
            ExperimentSpec(mix="iso-tpch", seed=1, measured_refs=300),
            sharing=["private", "shared-4"],
            policy=["rr", "affinity"],
        )
        runner = SuiteRunner(jobs=2, store=ResultStore())
        outcome = runner.run(suite)
        assert len(outcome.results) == 4
        assert not outcome.failures
        for result in outcome.results.values():
            assert result.spec.measured_refs == 300
            assert result.vm_metrics[0].cycles > 0

    def test_parallel_equals_serial(self):
        cells = grid_cells()
        serial = SweepExecutor(jobs=1, store=ResultStore()).run(cells)
        parallel = SweepExecutor(jobs=4, store=ResultStore()).run(cells)
        assert [o.key for o in serial] == [o.key for o in parallel]
        for a, b in zip(serial, parallel):
            assert metrics_of(a) == metrics_of(b)
            assert a.result.chip_summary == b.result.chip_summary
            assert a.result.final_time == b.result.final_time

    def test_parallel_failure_isolation(self):
        cells = grid_cells(policies=("rr",))
        cells.append((("bad",), ExperimentSpec(mix="mix99", **TINY)))
        outcomes = SweepExecutor(jobs=2, store=ResultStore()).run(cells)
        by_key = {o.key: o for o in outcomes}
        assert not by_key[("bad",)].ok
        assert "unknown mix" in by_key[("bad",)].error
        assert all(o.ok for key, o in by_key.items() if key != ("bad",))

    def test_runtime_registered_mix_and_scenario_reach_workers(
            self, monkeypatch, tmp_path):
        """A spawned worker starts with empty registries: the mix and the
        scenario must travel resolved, not by name."""
        import json
        from dataclasses import replace

        from repro.core import mixes
        from repro.core.mixes import Mix, register_mix
        from repro.core.store import result_to_dict
        from repro.scenarios import registry
        from repro.scenarios.registry import (get_scenario,
                                              load_scenario_file,
                                              save_scenario_file)
        from repro.scenarios.spec import scenario_spec

        monkeypatch.setattr(mixes, "_CUSTOM_MIXES", {})
        monkeypatch.setattr(registry, "_CUSTOM_SCENARIOS", {})
        register_mix(Mix("mycustom", (("specweb", 1), ("gups", 1))))
        path = tmp_path / "custom-churn.json"
        save_scenario_file(
            replace(get_scenario("churn-storm"), name="custom-churn"), path)
        load_scenario_file(path)
        cells = grid_cells(mix="mycustom") + [
            (("scenario",), scenario_spec("custom-churn", **TINY))]

        def serialized(jobs):
            outcomes = SweepExecutor(jobs=jobs, store=ResultStore()).run(cells)
            assert all(o.ok for o in outcomes), [o.error for o in outcomes]
            return [json.dumps(result_to_dict(o.result), sort_keys=True)
                    for o in outcomes]

        assert serialized(2) == serialized(1)


def pool_processes(before=()):
    """This process's live multiprocessing children not in ``before``."""
    return [p for p in multiprocessing.active_children() if p not in before]


class TestPersistentPool:
    def test_runs_share_one_pool_until_close(self):
        before = pool_processes()
        with SweepExecutor(jobs=2, store=ResultStore()) as executor:
            first = executor.run(grid_cells())
            pool = pool_processes(before)
            assert len(pool) == 2
            second = executor.run(grid_cells(mix="mix1"))
            assert pool_processes(before) == pool
        assert all(o.ok for o in first + second)
        assert not any(p.is_alive() for p in pool)
        # a closed executor runs what it is given inline
        assert executor.run(grid_cells(mix="mix5"))[0].ok
        assert pool_processes(before) == []

    def test_lone_cell_runs_inline_until_started(self):
        before = pool_processes()
        with SweepExecutor(jobs=2, store=ResultStore()) as executor:
            executor.run(grid_cells(sharings=("private",), policies=("rr",)))
            assert pool_processes(before) == []
            executor.start()
            assert pool_processes(before)
            outcome, = executor.run(
                grid_cells(mix="mix1", sharings=("private",),
                           policies=("rr",)))
            assert outcome.ok
        SweepExecutor(jobs=1).start()  # no pool to start
        assert pool_processes(before) == []

    def test_concurrent_runs_build_one_pool(self):
        import sys
        import threading

        before = pool_processes()
        outcomes = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SweepExecutor(jobs=2, store=ResultStore()) as executor:
                threads = [threading.Thread(
                    target=lambda mix=mix: outcomes.extend(executor.run(
                        grid_cells(mix=mix, policies=("rr",)))))
                    for mix in ("iso-tpch", "mix1", "mix5", "mix7", "mix2",
                                "mix3")]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert len(pool_processes(before)) == 2
        finally:
            sys.setswitchinterval(switch)
        assert len(outcomes) == 12 and all(o.ok for o in outcomes)

    def test_dead_pool_process_fails_over_to_a_retry_and_a_fresh_pool(self):
        import os
        import signal
        import time
        from multiprocessing.connection import wait

        before = pool_processes()
        with SweepExecutor(jobs=2, store=ResultStore(), retries=1,
                           retry_backoff=0.0) as executor:
            executor.start()
            victim = pool_processes(before)[0]
            os.kill(victim.pid, signal.SIGKILL)
            # the pool reaps its own processes: wait on the death, not
            # on a join that would race the pool for the exit status
            assert wait([victim.sentinel], timeout=10)
            time.sleep(0.2)  # the pool's manager thread sees it break
            outcomes = executor.run(grid_cells())
            assert all(o.ok for o in outcomes), [o.error for o in outcomes]
            assert any(o.retried for o in outcomes)
            outcomes = executor.run(grid_cells(mix="mix1"))
            assert all(o.ok and not o.retried for o in outcomes)
            assert victim not in pool_processes(before)

    def test_cells_retried_after_a_pool_death_keep_their_spans(
            self, tmp_path):
        import os
        import signal
        import time
        from multiprocessing.connection import wait

        from repro.obs.tracing import Tracer, collect_spans

        before = pool_processes()
        tracer = Tracer("grid", log_dir=tmp_path)
        cells = grid_cells()
        with SweepExecutor(jobs=2, store=ResultStore(), retries=1,
                           retry_backoff=0.0, tracer=tracer) as executor:
            executor.start()
            victim = pool_processes(before)[0]
            os.kill(victim.pid, signal.SIGKILL)
            assert wait([victim.sentinel], timeout=10)
            time.sleep(0.2)  # the pool's manager thread sees it break
            outcomes = executor.run(cells)
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        assert any(o.retried for o in outcomes)
        spans, _torn = collect_spans(tmp_path)
        grid, = [s for s in spans if s.name == "executor.grid"]
        simulated = [s for s in spans if s.name == "cell.simulate"
                     and s.parent_id == grid.span_id]
        assert len(simulated) == len(cells)


def _engine_bomb(*args, **kwargs):
    """Stands in for make_engine to prove the store made simulation
    unnecessary."""
    raise AssertionError("engine invoked despite a warm store")


class TestWarmStoreSkipsSimulation:
    def test_repeat_sharing_policy_suite_never_resimulates(
            self, tmp_path, monkeypatch):
        suite = sharing_policy_suite(
            "mix5", sharings=("private", "shared-4"), policies=("affinity",),
            base=ExperimentSpec(mix="mix5", **TINY))
        first = SuiteRunner(store=ResultStore(tmp_path)).run(suite)
        # Fresh store instance on the same directory: only the disk tier
        # can satisfy it.  The engine must not be constructed at all.
        monkeypatch.setattr("repro.core.experiment.make_engine", _engine_bomb)
        second = SuiteRunner(store=ResultStore(tmp_path)).run(suite)
        assert not first.failures and not second.failures
        assert second.cached_cells == 2
        assert set(first.results) == set(second.results)
        for key, result in first.results.items():
            assert [vm.cycles for vm in result.vm_metrics] == [
                vm.cycles for vm in second.results[key].vm_metrics]


class TestProgressCallback:
    def test_called_exactly_once_per_cell(self):
        cells = grid_cells()
        seen = []
        SweepExecutor(
            jobs=1, store=ResultStore(),
            progress=lambda done, total, o: seen.append(o.key),
        ).run(cells)
        assert sorted(seen) == sorted(key for key, _spec in cells)
        assert len(seen) == len(set(seen))  # no key reported twice

    def test_done_counts_monotone_and_complete(self):
        seen = []
        SweepExecutor(
            jobs=1, store=ResultStore(),
            progress=lambda done, total, o: seen.append((done, total)),
        ).run(grid_cells())
        assert [done for done, _ in seen] == list(range(1, 5))
        assert all(total == 4 for _, total in seen)

    def test_survives_failing_cell(self):
        cells = grid_cells(policies=("rr",))
        cells.insert(1, (("bad",), ExperimentSpec(mix="mix99", **TINY)))
        seen = []
        outcomes = SweepExecutor(
            jobs=1, store=ResultStore(),
            progress=lambda done, total, o: seen.append((o.key, o.ok)),
        ).run(cells)
        # the failing cell is still reported, and every later cell too
        assert len(seen) == len(cells)
        assert (("bad",), False) in seen
        assert sum(ok for _key, ok in seen) == len(cells) - 1
        assert [o.ok for o in outcomes] == [True, False, True]

    def test_cache_hits_reported_before_cold_cells(self):
        store = ResultStore()
        executor = SweepExecutor(jobs=1, store=store)
        cells = grid_cells(policies=("rr",))
        executor.run(cells[:1])  # warm the first cell
        seen = []
        SweepExecutor(
            jobs=1, store=store,
            progress=lambda done, total, o: seen.append(o.from_cache),
        ).run(cells)
        assert seen == [True, False]


class TestExecutorTelemetry:
    def test_counters_account_the_grid(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        store = ResultStore()
        cells = grid_cells(policies=("rr",))
        SweepExecutor(jobs=1, store=store, telemetry=telemetry).run(cells)
        assert telemetry.counters["executor.cells_done"].value == 2
        assert telemetry.counters["executor.simulated"].value == 2
        assert "executor.cache_hits" not in telemetry.counters

        SweepExecutor(jobs=1, store=store, telemetry=telemetry).run(cells)
        assert telemetry.counters["executor.cells_done"].value == 4
        assert telemetry.counters["executor.cache_hits"].value == 2

    def test_cold_cells_record_wall_spans(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        SweepExecutor(jobs=1, store=ResultStore(), telemetry=telemetry,
                      tracer=telemetry.trace).run(
                          grid_cells(policies=("rr",)))
        spans = [e for e in telemetry.trace.spans() if e.ph == "X"]
        names = {e.name for e in spans}
        assert "executor.grid" in names
        assert sum(1 for e in spans if e.name == "cell.simulate") == 2

    def test_each_grid_cell_hit_and_put_is_one_span(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        store = ResultStore()
        cells = grid_cells(policies=("rr",))
        for _ in range(2):  # cold, then warm
            SweepExecutor(jobs=1, store=store, telemetry=telemetry,
                          tracer=telemetry.trace).run(cells)
        names = [e.name for e in telemetry.trace.spans()]
        assert sorted(names) == sorted(
            ["executor.grid"] * 2 + ["cell.simulate"] * 2
            + ["store.put"] * 2 + ["cell.cached"] * 2)

    def test_no_tracer_records_no_spans(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        SweepExecutor(jobs=1, store=ResultStore(), telemetry=telemetry).run(
            grid_cells(policies=("rr",)))
        assert telemetry.counters["executor.simulated"].value == 2
        assert len(telemetry.trace) == 0

    def test_failures_counted(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        SweepExecutor(jobs=1, store=ResultStore(), telemetry=telemetry).run(
            [(("bad",), ExperimentSpec(mix="mix99", **TINY))])
        assert telemetry.counters["executor.failures"].value == 1

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(epoch=-1)


class TestTransientRetries:
    """Cell-level retry of transient failures (``retries=N``)."""

    @pytest.fixture
    def flaky_run_cell(self, monkeypatch):
        """Patch ``_run_cell`` to fail a configurable number of times."""
        import repro.core.executor as executor_mod

        real = executor_mod._run_cell
        state = {"failures": 0, "calls": 0}

        def run(payload):
            state["calls"] += 1
            if state["failures"] > 0:
                state["failures"] -= 1
                return payload[0], None, "OSError: transient", 0.01
            return real(payload)

        monkeypatch.setattr(executor_mod, "_run_cell", run)
        return state

    def test_transient_failure_recovers(self, flaky_run_cell):
        flaky_run_cell["failures"] = 1
        cells = grid_cells(policies=("rr",), sharings=("private",))
        outcomes = SweepExecutor(jobs=1, store=ResultStore(), retries=1,
                                 retry_backoff=0.0).run(cells)
        assert all(o.ok for o in outcomes)
        assert outcomes[0].retried == 1
        assert not outcomes[0].from_cache

    def test_retry_budget_exhausts(self, flaky_run_cell):
        flaky_run_cell["failures"] = 5
        cells = grid_cells(policies=("rr",), sharings=("private",))
        outcomes = SweepExecutor(jobs=1, store=ResultStore(), retries=2,
                                 retry_backoff=0.0).run(cells)
        assert not outcomes[0].ok
        assert "transient" in outcomes[0].error
        assert outcomes[0].retried == 2

    def test_no_retries_by_default(self, flaky_run_cell):
        flaky_run_cell["failures"] = 1
        cells = grid_cells(policies=("rr",), sharings=("private",))
        outcomes = SweepExecutor(jobs=1, store=ResultStore()).run(cells)
        assert not outcomes[0].ok
        assert outcomes[0].retried == 0
        assert flaky_run_cell["calls"] == 1

    def test_permanent_failure_not_masked(self):
        outcomes = SweepExecutor(jobs=1, store=ResultStore(), retries=2,
                                 retry_backoff=0.0).run(
            [(("bad",), ExperimentSpec(mix="mix99", **TINY))])
        assert not outcomes[0].ok
        assert outcomes[0].retried == 2  # tried, still failed

    def test_on_retry_callback_and_counter(self, flaky_run_cell):
        from repro.obs.telemetry import Telemetry

        flaky_run_cell["failures"] = 1
        seen = []
        telemetry = Telemetry()
        cells = grid_cells(policies=("rr",), sharings=("private",))
        SweepExecutor(
            jobs=1, store=ResultStore(), retries=1, retry_backoff=0.0,
            telemetry=telemetry,
            on_retry=lambda key, spec, attempt, error: seen.append(
                (key, spec.policy, attempt, error)),
        ).run(cells)
        assert telemetry.counters["executor.retries"].value == 1
        assert seen == [(("private", "rr"), "rr", 1,
                         "OSError: transient")]

    def test_invalid_retry_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(retries=-1)
        with pytest.raises(ConfigurationError):
            SweepExecutor(retry_backoff=-0.1)
