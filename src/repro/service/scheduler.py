"""Async job dispatcher: dedup, coalescing, retries, quarantine.

The :class:`JobScheduler` sits between the HTTP front end and the
simulation machinery.  On submission it short-circuits work that is
already done or already happening:

dedup (warm store)
    A job whose every cell is present in the
    :class:`~repro.core.store.ResultStore` completes immediately —
    zero cells executed, counted in ``service.dedup_hits``.

coalescing (in flight)
    A job whose :func:`~repro.service.jobs.job_key_of` identity matches
    a job currently queued or running attaches to it as a *follower*:
    it is journaled (so a crash still replays it) but never enqueued;
    when the primary finishes, every follower completes with the same
    result keys.  Counted in ``service.coalesced``.

Everything else is pulled off the :class:`~repro.service.jobs.JobQueue`
in priority order by the run loop and executed through a
:class:`~repro.core.executor.SweepExecutor` on a worker thread (the
executor may itself fan cells out over processes and retries transient
cell failures once in place).  Up to ``concurrency`` jobs run at once:
each claimed job becomes its own task, so a short warm job is never
stuck behind a long cold one (admission backpressure is unchanged —
``queue_limit`` still bounds *pending* jobs at the server).  A job
that still has failing cells afterwards is retried with exponential
backoff — ``backoff_base * 2**(attempt-1)`` seconds, capped — until
``max_attempts`` is spent, then quarantined as poison
(``service.quarantined``).

A ``GET /jobs/<id>?wait=S`` long-poll parks on :meth:`JobScheduler
.wait_done` until the job is terminal, so clients learn of completion
without polling.

The scheduler also feeds two latency histograms the fleet front-end
aggregates across workers: ``service.queue_wait_seconds`` (submission
to claim) and ``service.job_seconds`` (submission to terminal state).
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

from ..core.executor import SweepExecutor
from ..core.store import ResultStore
from ..errors import ConfigurationError
from ..obs.tracing import SpanContext
from .jobs import Job, JobQueue, JobState

__all__ = ["JobScheduler", "JobWaiters", "LATENCY_BOUNDS"]

LATENCY_BOUNDS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
                  2.5, 5.0, 10.0, 30.0, 60.0, 120.0)
"""Histogram bucket bounds (seconds) for the service latency series."""


class JobWaiters:
    """Long-polls parked on job ids until released (loop context)."""

    def __init__(self) -> None:
        self._futures: Dict[str, List[asyncio.Future]] = {}

    async def wait(self, job_id: str, timeout: float) -> None:
        """Return once ``job_id`` is released or ``timeout`` s pass."""
        future = asyncio.get_running_loop().create_future()
        self._futures.setdefault(job_id, []).append(future)
        try:
            await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            held = self._futures.get(job_id)
            if held is not None and future in held:
                held.remove(future)
                if not held:
                    del self._futures[job_id]

    def release(self, job_id: str) -> None:
        for future in self._futures.pop(job_id, ()):
            if not future.done():
                future.set_result(None)

    def release_all(self) -> None:
        for job_id in list(self._futures):
            self.release(job_id)


class JobScheduler:
    """Drain the job queue through an executor, asynchronously.

    Parameters
    ----------
    queue, store:
        The durable queue and the (shared, warm) result store.
    executor_jobs:
        Worker processes per job's :class:`SweepExecutor` (1 = in
        process, serial — the safe default under asyncio).
    concurrency:
        Jobs executed at once by this scheduler (1 = the strict
        serial behaviour of earlier versions).  Each running job owns
        a worker thread, so warm/short jobs interleave with long ones.
    max_attempts:
        Execution attempts per job before quarantine.
    backoff_base, backoff_cap:
        Exponential retry delay parameters in seconds.
    executor_retries:
        Cell-level transient retries inside each executor run.
    telemetry:
        Hub for the ``service.*`` counters and latency histograms.
    """

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        executor_jobs: int = 1,
        concurrency: int = 1,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        executor_retries: int = 1,
        telemetry=None,
        tracer=None,
    ):
        if telemetry is None:
            from ..obs.telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        if concurrency < 1:
            raise ConfigurationError(
                f"scheduler concurrency must be >= 1, got {concurrency}")
        self.queue = queue
        self.store = store
        self.executor_jobs = executor_jobs
        self.concurrency = int(concurrency)
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.executor_retries = executor_retries
        self.telemetry = telemetry
        self.tracer = tracer
        self._inflight: Dict[str, str] = {}  # job_key -> primary job_id
        self._followers: Dict[str, List[str]] = {}
        self._submit_times: Dict[str, float] = {}
        # tracing bookkeeping: pre-minted e2e span context (children are
        # recorded against it before the e2e span itself lands) and the
        # epoch-us wall stamp of the submit for backdating.
        self._job_ctx: Dict[str, tuple] = {}
        self._submit_wall: Dict[str, int] = {}
        self._run_ctx: Dict[str, object] = {}
        # created lazily inside the run loop: binding an asyncio.Event
        # at construction time would capture the wrong loop on py3.9
        self._wakeup: Optional[asyncio.Event] = None
        self._stopped = False
        self._draining = False
        self._running: Dict[str, asyncio.Task] = {}
        self._waiters = JobWaiters()
        self.paused = False
        # on restart, recovered jobs are already in the heap; register
        # their identities so new submissions coalesce against them
        for job in self.queue.jobs():
            if not job.done:
                self._inflight.setdefault(job.job_key, job.job_id)

    # -- submission ----------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Admit one job (event-loop context).

        Applies dedup and coalescing before enqueueing; always journals
        the submission first so a crash between admission and execution
        cannot lose it.
        """
        self.telemetry.counter("service.submitted").inc()
        self._submit_times[job.job_id] = time.monotonic()
        if self.tracer is not None:
            # Mint the job's end-to-end span context *now*: children
            # (queue wait, run, executor) parent to it even though the
            # e2e span itself is only recorded at the terminal state.
            parent = SpanContext.parse(job.trace)
            self._job_ctx[job.job_id] = (
                self.tracer.new_context(parent), parent)
            self._submit_wall[job.job_id] = time.time_ns() // 1000
        primary = self._inflight.get(job.job_key)
        if primary is not None and self.coalesces(job.job_key):
            job.coalesced_with = primary
            self.queue.submit(job)
            self._followers.setdefault(primary, []).append(job.job_id)
            self.telemetry.counter("service.coalesced").inc()
            return job
        self.queue.submit(job)
        warm = self._warm_keys(job)
        if warm is not None:
            self.queue.mark_done(job.job_id, warm,
                                 cells_cached=len(job.cells),
                                 cells_simulated=0)
            self.telemetry.counter("service.dedup_hits").inc()
            self.telemetry.counter("service.completed").inc()
            self._observe_done(job.job_id)
            return job
        self._inflight[job.job_key] = job.job_id
        self._wake()
        return job

    def coalesces(self, job_key: str) -> bool:
        """Would a job with this identity attach to one in flight?"""
        primary = self._inflight.get(job_key)
        primary_job = self.queue.get(primary) if primary else None
        return primary_job is not None and not primary_job.done

    def _warm_keys(self, job: Job) -> Optional[List[str]]:
        """Result keys if *every* cell is already stored, else None."""
        keys = [run.key for _key, run in job.planned_cells()]
        for key in keys:
            if self.store.get_by_key(key) is None:
                return None
        return keys

    async def wait_done(self, job_id: str, timeout: float) -> None:
        """Return once the job is terminal, ``timeout`` seconds pass or
        a drain begins (loop context)."""
        job = self.queue.get(job_id)
        if job is None or job.done or self._draining:
            return
        await self._waiters.wait(job_id, timeout)

    # -- latency accounting --------------------------------------------

    def _observe_wait(self, job_id: str) -> None:
        submitted = self._submit_times.get(job_id)
        if submitted is None:
            return
        wait = time.monotonic() - submitted
        self.telemetry.histogram(
            "service.queue_wait_seconds", bounds=LATENCY_BOUNDS
        ).observe(wait)
        if self.tracer is not None and job_id in self._job_ctx:
            ctx, _parent = self._job_ctx[job_id]
            self.tracer.record_span(
                "job.queue_wait", cat="queue", duration_s=wait,
                parent=ctx, ts_us=self._submit_wall.get(job_id),
                attrs={"job_id": job_id})

    def _observe_done(self, job_id: str) -> None:
        """Terminal bookkeeping of one job: answer its long-polls and
        record its latency."""
        self._waiters.release(job_id)
        submitted = self._submit_times.pop(job_id, None)
        if submitted is None:
            self._job_ctx.pop(job_id, None)
            self._submit_wall.pop(job_id, None)
            return
        elapsed = time.monotonic() - submitted
        self.telemetry.histogram(
            "service.job_seconds", bounds=LATENCY_BOUNDS
        ).observe(elapsed)
        entry = self._job_ctx.pop(job_id, None)
        wall = self._submit_wall.pop(job_id, None)
        if self.tracer is not None and entry is not None:
            ctx, parent = entry
            job = self.queue.get(job_id)
            status = "ok"
            if job is not None and job.state == JobState.QUARANTINED:
                status = "error"
            attrs = {"job_id": job_id}
            if job is not None:
                attrs["state"] = job.state
            self.tracer.record_span(
                "job.e2e", cat="job", duration_s=elapsed,
                parent=parent, context=ctx, ts_us=wall,
                attrs=attrs, status=status)

    # -- the run loop --------------------------------------------------

    def _wake(self) -> None:
        if self._wakeup is not None:
            self._wakeup.set()

    async def run(self) -> None:
        """Claim and execute jobs until :meth:`stop` (or drain).

        Up to :attr:`concurrency` jobs run concurrently, each on its
        own task; the loop tops the running set back up whenever a
        slot frees or a submission wakes it.
        """
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        while not self._stopped:
            claimed = False
            while not self.paused and len(self._running) < self.concurrency:
                job = self.queue.claim()
                if job is None:
                    break
                claimed = True
                self._observe_wait(job.job_id)
                task = asyncio.create_task(self._execute(job))
                self._running[job.job_id] = task
            if claimed:
                continue
            if self._draining and not self._running:
                break
            self._wakeup.clear()
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                pass
        if self._running:
            await asyncio.gather(*list(self._running.values()),
                                 return_exceptions=True)

    async def _execute(self, job: Job) -> None:
        run_ctx = None
        run_t0 = time.monotonic()
        if self.tracer is not None and job.job_id in self._job_ctx:
            run_ctx = self.tracer.new_context(self._job_ctx[job.job_id][0])
            self._run_ctx[job.job_id] = run_ctx
        try:
            outcomes = await asyncio.to_thread(self._run_cells, job)
        except Exception as exc:  # executor machinery itself broke
            outcomes = None
            error = f"executor error: {exc!r}"
        finally:
            self._running.pop(job.job_id, None)
            self._run_ctx.pop(job.job_id, None)
            self._wake()
            if run_ctx is not None and job.job_id in self._job_ctx:
                self.tracer.record_span(
                    "job.run", cat="run",
                    duration_s=time.monotonic() - run_t0,
                    parent=self._job_ctx[job.job_id][0], context=run_ctx,
                    attrs={"job_id": job.job_id,
                           "attempt": job.attempts})
        if outcomes is not None:
            failures = [o for o in outcomes if not o.ok]
            if not failures:
                done = self.queue.mark_done(
                    job.job_id,
                    [run.key for _key, run in job.planned_cells()],
                    cells_cached=sum(1 for o in outcomes if o.from_cache),
                    cells_simulated=sum(
                        1 for o in outcomes
                        if not o.from_cache and not o.error),
                )
                self.telemetry.counter("service.completed").inc()
                self._finish(done)
                return
            error = (f"{len(failures)}/{len(outcomes)} cells failed; "
                     f"first: {failures[0].error.strip().splitlines()[-1]}")
        self.queue.mark_failed(job.job_id, error)
        if job.attempts >= self.max_attempts:
            quarantined = self.queue.quarantine(job.job_id, error)
            self.telemetry.counter("service.quarantined").inc()
            self._finish(quarantined)
            return
        self.telemetry.counter("service.retries").inc()
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (job.attempts - 1)))
        loop = asyncio.get_running_loop()
        loop.call_later(delay, self._requeue, job.job_id)

    def _run_cells(self, job: Job):
        """Worker-thread body: one executor run over the job's cells."""
        run_ctx = self._run_ctx.get(job.job_id)
        executor = SweepExecutor(
            jobs=self.executor_jobs,
            store=self.store,
            telemetry=self.telemetry,
            retries=self.executor_retries,
            tracer=self.tracer,
        )
        return executor.run(job.planned_cells(), trace_parent=run_ctx)

    def _requeue(self, job_id: str) -> None:
        job = self.queue.get(job_id)
        if job is None or job.state != JobState.FAILED:
            return
        self.queue.requeue(job_id)
        self._wake()

    def _finish(self, job: Job) -> None:
        """Terminal bookkeeping: release identity, complete followers."""
        if self._inflight.get(job.job_key) == job.job_id:
            del self._inflight[job.job_key]
        self._observe_done(job.job_id)
        for follower_id in self._followers.pop(job.job_id, ()):
            if job.state == JobState.DONE:
                self.queue.mark_done(
                    follower_id, job.result_keys,
                    cells_cached=len(job.result_keys), cells_simulated=0)
                self.telemetry.counter("service.completed").inc()
            else:
                self.queue.quarantine(
                    follower_id,
                    f"coalesced primary {job.job_id} quarantined: "
                    f"{job.error}")
                self.telemetry.counter("service.quarantined").inc()
            self._observe_done(follower_id)

    # -- lifecycle -----------------------------------------------------

    def drain(self) -> None:
        """Finish the running jobs, then exit; pending jobs stay
        journaled for the next process."""
        self._draining = True
        self.paused = True
        self._waiters.release_all()
        self._wake()

    def stop(self) -> None:
        """Exit the run loop as soon as the current jobs complete."""
        self._stopped = True
        self._wake()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def running_job(self) -> Optional[str]:
        """One of the currently running job ids (None when idle)."""
        return next(iter(self._running), None)

    @property
    def running_jobs(self) -> List[str]:
        """All currently running job ids."""
        return list(self._running)