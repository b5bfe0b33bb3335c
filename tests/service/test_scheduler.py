"""Tests for the async dispatcher: dedup, coalescing, retry, quarantine.

These drive :class:`JobScheduler` directly on a private event loop —
no HTTP involved — so each behaviour is tested at the layer that owns
it.
"""

import asyncio

import pytest

from repro.core.executor import SweepExecutor
from repro.core.store import ResultStore
from repro.errors import SimulationError
from repro.obs import Telemetry
from repro.service.jobs import Job, JobQueue, JobState
from repro.service.scheduler import JobScheduler

from .conftest import tiny_cells, tiny_spec


def make_scheduler(store=None, queue=None, telemetry=None, **kwargs):
    kwargs.setdefault("backoff_base", 0.01)
    return JobScheduler(
        queue if queue is not None else JobQueue(),
        store if store is not None else ResultStore(),
        telemetry=telemetry,
        **kwargs,
    )


@pytest.fixture
def poison_spec(monkeypatch):
    """A spec admission accepts but every run of which raises: the
    worker-side failure that retries cannot fix.  (A spec the library
    refuses, such as an unknown mix, cannot be keyed into a job.)"""
    import repro.core.experiment as experiment

    spec = tiny_spec(mix="iso-tpcw")
    real = experiment.run_experiment

    def run(run_spec, *args, **kwargs):
        # an inline cell hands over its RunPlan, a pool worker its spec
        if getattr(run_spec, "spec", run_spec).mix == spec.mix:
            raise SimulationError("poisoned cell")
        return real(run_spec, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_experiment", run)
    return spec


def run_jobs(scheduler, jobs, timeout=120.0):
    """Submit ``jobs``, run the scheduler until all are terminal."""

    async def drive():
        for job in jobs:
            scheduler.submit(job)
        runner = asyncio.create_task(scheduler.run())

        async def wait_terminal():
            while not all(scheduler.queue.get(j.job_id).done
                          for j in jobs):
                await asyncio.sleep(0.02)

        try:
            await asyncio.wait_for(wait_terminal(), timeout=timeout)
        finally:
            scheduler.stop()
            await runner

    asyncio.run(drive())
    return [scheduler.queue.get(job.job_id) for job in jobs]


class TestHappyPath:
    def test_job_simulates_and_stores(self):
        store = ResultStore()
        scheduler = make_scheduler(store)
        job, = run_jobs(scheduler, [Job.create(tiny_cells())])
        assert job.state == JobState.DONE
        assert job.cells_simulated == 4
        assert job.cells_cached == 0
        assert len(job.result_keys) == 4
        assert all(store.get_by_key(key) is not None
                   for key in job.result_keys)

    def test_warm_store_completes_without_scheduling(self):
        store = ResultStore()
        cells = tiny_cells()
        SweepExecutor(store=store).run(cells)  # pre-warm
        telemetry = Telemetry()
        scheduler = make_scheduler(store, telemetry=telemetry)

        job = scheduler_submit_sync(scheduler, Job.create(cells))
        assert job.state == JobState.DONE
        assert job.cells_cached == 4
        assert job.cells_simulated == 0
        assert telemetry.counters["service.dedup_hits"].value == 1
        assert scheduler.queue.pending_count == 0

    def test_jobs_plan_each_cell_once(self, monkeypatch):
        # admission plans (and keys) each cell once; an inline cold cell
        # runs that plan, and dedup and completion reuse its key
        from repro.core.experiment import RunPlan

        plans = []
        real = RunPlan.__init__

        def init(self, *args, **kwargs):
            plans.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(RunPlan, "__init__", init)
        store = ResultStore()
        cells = tiny_cells(sharings=("private",), policies=("rr",))
        fresh, = run_jobs(make_scheduler(store), [Job.create(cells)])
        assert fresh.state == JobState.DONE and len(plans) == 1
        plans.clear()
        warm = scheduler_submit_sync(make_scheduler(store), Job.create(cells))
        assert warm.state == JobState.DONE and len(plans) == 1

    def test_priority_order_of_execution(self):
        order = []
        scheduler = make_scheduler()
        original = scheduler._run_cells

        def spy(job):
            order.append(job.priority)
            return original(job)

        scheduler._run_cells = spy
        low = Job.create(tiny_cells(sharings=("private",),
                                    policies=("rr",)), priority=20)
        high = Job.create(tiny_cells(sharings=("shared-4",),
                                     policies=("rr",)), priority=1)
        run_jobs(scheduler, [low, high])
        assert order == [1, 20]


def scheduler_submit_sync(scheduler, job):
    """Run submit() inside a loop context (it never awaits)."""

    async def _submit():
        return scheduler.submit(job)

    return asyncio.run(_submit())


class TestCoalescing:
    def test_identical_inflight_jobs_share_one_run(self):
        telemetry = Telemetry()
        scheduler = make_scheduler(telemetry=telemetry)
        cells = tiny_cells()
        first = Job.create(cells)
        second = Job.create(list(reversed(cells)))
        done = run_jobs(scheduler, [first, second])
        assert [job.state for job in done] == [JobState.DONE] * 2
        assert done[1].coalesced_with == first.job_id
        assert done[1].cells_simulated == 0
        assert done[0].result_keys
        assert sorted(done[0].result_keys) == sorted(done[1].result_keys)
        assert telemetry.counters["service.coalesced"].value == 1
        # only the primary simulated
        assert telemetry.counters["executor.simulated"].value == 4

    def test_different_jobs_do_not_coalesce(self):
        scheduler = make_scheduler()
        first = Job.create(tiny_cells())
        second = Job.create(tiny_cells(seed=2))
        done = run_jobs(scheduler, [first, second])
        assert done[1].coalesced_with is None
        assert done[1].cells_simulated == 4


class TestRetriesAndQuarantine:
    def test_poison_job_is_retried_then_quarantined(self, poison_spec):
        telemetry = Telemetry()
        scheduler = make_scheduler(telemetry=telemetry, max_attempts=3)
        poison = Job.create([(("bad",), poison_spec)])
        job, = run_jobs(scheduler, [poison])
        assert job.state == JobState.QUARANTINED
        assert job.attempts == 3
        assert "poisoned cell" in job.error
        assert telemetry.counters["service.retries"].value == 2
        assert telemetry.counters["service.quarantined"].value == 1

    def test_transient_failure_recovers_via_executor_retry(self,
                                                           monkeypatch):
        import repro.core.executor as executor_mod

        real = executor_mod._run_cell
        failures = {"left": 1}

        def flaky(payload):
            if failures["left"] > 0:
                failures["left"] -= 1
                index = payload[0]
                return index, None, "RuntimeError: transient crash", 0.01
            return real(payload)

        monkeypatch.setattr(executor_mod, "_run_cell", flaky)
        telemetry = Telemetry()
        scheduler = make_scheduler(telemetry=telemetry,
                                   executor_retries=1)
        job, = run_jobs(scheduler, [Job.create(
            tiny_cells(sharings=("private",), policies=("rr",)))])
        assert job.state == JobState.DONE
        assert job.attempts == 1  # recovered inside the executor run
        assert telemetry.counters["executor.retries"].value == 1

    def test_mixed_job_good_cells_are_stored_despite_quarantine(
            self, poison_spec):
        store = ResultStore()
        scheduler = make_scheduler(store, max_attempts=1)
        good = tiny_spec()
        mixed = Job.create([(("good",), good), (("bad",), poison_spec)])
        job, = run_jobs(scheduler, [mixed])
        assert job.state == JobState.QUARANTINED
        # the good cell's result still landed in the shared store
        assert store.get(good) is not None

    def test_follower_of_quarantined_primary_is_quarantined(
            self, poison_spec):
        scheduler = make_scheduler(max_attempts=1)
        poison_cells = [(("bad",), poison_spec)]
        first = Job.create(poison_cells)
        second = Job.create(poison_cells)
        done = run_jobs(scheduler, [first, second])
        assert [j.state for j in done] == [JobState.QUARANTINED] * 2
        assert first.job_id in done[1].error


class TestDrain:
    def test_drain_exits_with_pending_left_enqueued(self):
        scheduler = make_scheduler()
        scheduler.paused = True
        job = Job.create(tiny_cells())

        async def drive():
            scheduler.submit(job)
            runner = asyncio.create_task(scheduler.run())
            scheduler.drain()
            await asyncio.wait_for(runner, timeout=10)

        asyncio.run(drive())
        assert scheduler.queue.get(job.job_id).state == JobState.SUBMITTED

    def test_recovered_jobs_complete_after_restart(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        job = Job.create(tiny_cells())
        queue.submit(job)
        queue.close()  # process "dies" before running it

        replayed = JobQueue(journal)
        assert replayed.recovered == 1
        scheduler = make_scheduler(queue=replayed)

        async def drive():
            runner = asyncio.create_task(scheduler.run())
            while not replayed.get(job.job_id).done:
                await asyncio.sleep(0.02)
            scheduler.stop()
            await runner

        asyncio.run(asyncio.wait_for(drive(), timeout=120))
        assert replayed.get(job.job_id).state == JobState.DONE


def test_executor_error_counts_as_attempt(monkeypatch):
    scheduler = make_scheduler(max_attempts=1)

    def broken(_job):
        raise RuntimeError("executor exploded")

    scheduler._run_cells = broken
    job, = run_jobs(scheduler, [Job.create(tiny_cells())])
    assert job.state == JobState.QUARANTINED
    assert "executor exploded" in job.error


@pytest.mark.parametrize("attempts", [1, 2])
def test_max_attempts_bounds_total_runs(attempts, poison_spec):
    runs = []
    scheduler = make_scheduler(max_attempts=attempts)
    original = scheduler._run_cells

    def spy(job):
        runs.append(job.attempts)
        return original(job)

    scheduler._run_cells = spy
    job, = run_jobs(scheduler, [Job.create([(("bad",), poison_spec)])])
    assert job.state == JobState.QUARANTINED
    assert runs == list(range(1, attempts + 1))


class TestConcurrency:
    def test_concurrency_below_one_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_scheduler(concurrency=0)

    @pytest.mark.parametrize("concurrency,expected", [(1, 1), (3, 3)])
    def test_running_set_is_bounded_by_concurrency(self, concurrency,
                                                   expected):
        """N jobs overlap iff the scheduler is allowed N slots."""
        import threading
        import time as time_mod

        active = []
        peak = []
        lock = threading.Lock()
        scheduler = make_scheduler(concurrency=concurrency)

        def slow(_job):
            with lock:
                active.append(1)
                peak.append(len(active))
            time_mod.sleep(0.15)
            with lock:
                active.pop()
            return []

        scheduler._run_cells = slow
        # distinct mixes so the jobs neither dedup nor coalesce
        jobs = [Job.create([((i,), tiny_spec(seed=100 + i))])
                for i in range(3)]
        done = run_jobs(scheduler, jobs)
        assert all(j.state == JobState.DONE for j in done)
        assert max(peak) == expected

    def test_short_job_not_stuck_behind_long_one(self):
        """With two slots a warm job overtakes a slow cold one."""
        import threading

        release = threading.Event()
        order = []
        scheduler = make_scheduler(concurrency=2)

        def gated(job):
            if job.priority == 1:
                release.wait(timeout=30)
            order.append(job.priority)
            return []

        scheduler._run_cells = gated
        slow_job = Job.create([((0,), tiny_spec(seed=201))], priority=1)
        fast_job = Job.create([((0,), tiny_spec(seed=202))], priority=2)

        async def drive():
            scheduler.submit(slow_job)
            scheduler.submit(fast_job)
            runner = asyncio.create_task(scheduler.run())
            while not scheduler.queue.get(fast_job.job_id).done:
                await asyncio.sleep(0.02)
            release.set()
            while not scheduler.queue.get(slow_job.job_id).done:
                await asyncio.sleep(0.02)
            scheduler.stop()
            await runner

        asyncio.run(asyncio.wait_for(drive(), timeout=60))
        assert order == [2, 1]

    def test_running_jobs_properties(self):
        scheduler = make_scheduler()
        assert scheduler.running_job is None
        assert scheduler.running_jobs == []


class TestLatencyHistograms:
    def test_queue_wait_and_job_seconds_observed(self):
        telemetry = Telemetry()
        scheduler = make_scheduler(telemetry=telemetry)
        jobs = [Job.create([((i,), tiny_spec(seed=300 + i))])
                for i in range(2)]
        run_jobs(scheduler, jobs)
        wait_hist = telemetry.histograms["service.queue_wait_seconds"]
        done_hist = telemetry.histograms["service.job_seconds"]
        assert wait_hist.observations == 2
        assert done_hist.observations == 2
        assert done_hist.mean >= wait_hist.mean

    def test_dedup_fast_path_counts_in_job_seconds(self):
        store = ResultStore()
        cells = tiny_cells()
        SweepExecutor(store=store).run(cells)  # pre-warm
        telemetry = Telemetry()
        scheduler = make_scheduler(store, telemetry=telemetry)
        scheduler_submit_sync(scheduler, Job.create(cells))
        hist = telemetry.histograms["service.job_seconds"]
        assert hist.observations == 1
