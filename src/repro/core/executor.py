"""Parallel sweep execution.

A grid of experiments (the cartesian cells of a sweep or an
:class:`~repro.core.suite.ExperimentSuite`) is embarrassingly parallel:
every cell is an independent :func:`~repro.core.experiment.run_experiment`
call with a fully-resolved spec.  :class:`SweepExecutor` fans cells out
over one long-lived process pool and funnels results through a
:class:`~repro.core.store.ResultStore`, so that

* a cell already present in the store is never re-simulated — not in
  this process, not in another, not in a later session (disk tier);
* an ``N``-job run is bit-identical to a serial run: each spec is
  planned (:func:`~repro.core.experiment.plan`) once *in the parent*
  before dispatch, so every worker sees the same explicit seed, and
  :class:`~repro.sim.rng.RngFactory` streams depend only on the spec;
* a refused or failing cell reports its exception (with traceback) in
  its :class:`CellOutcome` instead of aborting the rest of the grid;
  so does a cell whose pool process died (an OOM kill, say): the pool
  is replaced on the next run and ``retries`` re-run the cell in the
  parent.

The pool is created on the first run with more than one cold cell (or
by :meth:`SweepExecutor.start`) and reused by later runs, so its
processes keep their imports and per-process caches warm; ``close()``
or leaving a ``with`` block shuts it down.  Workers are spawned: the
worker function is a module-level callable and its payload is the
cell's picklable :class:`RunPlan` (``spawn`` is the only safe start
method on macOS/Windows or in threaded parents such as the service).
The plan carries the resolved mix and scenario, so a mix or scenario
registered at run time in the parent runs in a worker whose own
registries never heard of it.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..errors import ConfigurationError, ReproError
from .experiment import ExperimentResult, ExperimentSpec, RunPlan, plan

if TYPE_CHECKING:  # imported with the first pool: jobs=1 never loads them
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["CellOutcome", "ProgressCallback", "RetryCallback",
           "SweepExecutor"]


@dataclass
class CellOutcome:
    """Accounting for one grid cell.

    Exactly one of :attr:`result` / :attr:`error` is set.  ``wall_time``
    is the cell's own simulation wall-clock in seconds (zero for cache
    hits); ``from_cache`` marks cells satisfied by the store.
    """

    key: tuple
    spec: ExperimentSpec
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    wall_time: float = 0.0
    from_cache: bool = False
    retried: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


ProgressCallback = Callable[[int, int, CellOutcome], None]
"""Called as ``progress(done, total, outcome)`` after every cell."""

RetryCallback = Callable[[tuple, ExperimentSpec, int, str], None]
"""Called as ``on_retry(key, spec, attempt, error)`` before a retry."""


def _run_cell(payload: Tuple):
    """Worker entry point: run one cell, never raise.

    Module-level (hence picklable by reference) so it survives the
    ``spawn`` start method.  Uses ``use_cache=False`` — the parent owns
    the store; workers only compute.  A positive ``epoch`` samples the
    cell through a worker-local telemetry hub; the sampled series ride
    back to the parent on ``result.series`` (plain JSON, picklable).

    The payload is ``(index, spec, epoch)`` or, when the parent traces,
    ``(index, spec, epoch, trace)`` with ``spec`` the cell's
    :class:`RunPlan` (or, for a spec the parent could not plan, the
    :class:`ExperimentSpec`, which fails here), and ``trace`` a plain dict
    (``traceparent``/``log_dir``/``service``) — strings survive the
    pickle boundary, so the worker joins the parent's trace and appends
    a ``cell.simulate`` span to its own per-process span log.
    """
    index, spec, epoch = payload[0], payload[1], payload[2]
    trace = payload[3] if len(payload) > 3 else None
    start = time.perf_counter()
    try:
        from contextlib import nullcontext

        from .experiment import run_experiment

        telemetry = None
        if epoch > 0:
            from ..obs.telemetry import Telemetry

            telemetry = Telemetry()
        span = nullcontext()
        if trace is not None:
            from ..obs.tracing import SpanContext, process_tracer

            tracer = process_tracer(trace["log_dir"], trace["service"])
            span = tracer.start_span(
                "cell.simulate", cat="sim",
                parent=SpanContext.parse(trace.get("traceparent")),
                attrs={"index": index})
        with span:
            result = run_experiment(spec, use_cache=False,
                                    telemetry=telemetry, epoch=epoch)
        return index, result, None, time.perf_counter() - start
    except Exception:
        return index, None, traceback.format_exc(), time.perf_counter() - start


def _start_worker() -> None:
    """The task that starts a pool process: unpickling it imports this
    module, and with it the whole cell path (``core.experiment``)."""


class SweepExecutor:
    """Run a list of ``(key, spec)`` cells, optionally in parallel.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (the default) runs every cell inline in
        the calling process — the exact serial path the library always
        had.
    store:
        The :class:`~repro.core.store.ResultStore` consulted before and
        populated after each cell; ``None`` uses the process-wide
        default store.
    progress:
        Optional ``progress(done, total, outcome)`` callback, invoked in
        the parent as each cell completes (cache hits first).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` hub whose
        ``executor.*`` counters and cell-time histogram account the
        grid.
    epoch:
        Positive to epoch-sample every cold cell (worker-local probes;
        see :func:`_run_cell`).  Sampled series come back on each
        ``result.series`` and are persisted as store sidecars.
    retries:
        Per-cell transient-failure retries (default 0 — a failed cell
        is final, the historical behaviour).  A positive count re-runs
        a failed cell up to ``retries`` more times *in the parent*,
        sleeping ``retry_backoff * 2**(attempt-1)`` seconds first; the
        recovery is recorded on :attr:`CellOutcome.retried` and in the
        ``executor.retries`` telemetry counter.  This is what carries
        a run past a crashed pool process.
    retry_backoff:
        Base backoff delay in seconds (0 retries instantly — tests).
    on_retry:
        Optional ``on_retry(key, spec, attempt, error)`` callback
        invoked before each retry (the service journals these).
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`, the one sink of
        the grid's spans: ``executor.grid`` around the run, then one
        ``cell.cached`` per store hit, one ``cell.simulate`` per cold
        cell and one ``store.put`` per stored result.  ``repro
        profile`` passes its hub's ring and exports it as a Chrome
        trace.

    Runs may overlap on several threads (the service runs one job per
    thread); they share the one pool.
    """

    def __init__(
        self,
        jobs: int = 1,
        store=None,
        progress: Optional[ProgressCallback] = None,
        telemetry=None,
        epoch: int = 0,
        retries: int = 0,
        retry_backoff: float = 0.5,
        on_retry: Optional[RetryCallback] = None,
        tracer=None,
    ):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if epoch < 0:
            raise ConfigurationError(f"epoch must be >= 0, got {epoch}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {retry_backoff}")
        if telemetry is None:
            from ..obs.telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.jobs = jobs
        self.store = store
        self.progress = progress
        self.telemetry = telemetry
        self.epoch = epoch
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.on_retry = on_retry
        self.tracer = tracer
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._eager = False  # started: every cold cell runs in the pool
        self._closed = False

    # -- the pool ------------------------------------------------------

    def start(self) -> None:
        """Start the pool's processes now rather than at the first
        pooled run; from then on every cold cell runs in the pool, a
        lone one too.  Returns at once (the processes import in the
        background); a no-op for ``jobs == 1``."""
        if self.jobs == 1:
            return
        self._eager = True
        pool = self._pool_for(self.jobs)
        if pool is not None:
            # the results are nothing; a process lost while starting
            # breaks the pool, which the next run's cells then report
            for _ in range(self.jobs):
                pool.submit(_start_worker)

    def close(self) -> None:
        """Shut the pool down and wait for its processes to exit; later
        runs run inline.  Idempotent."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _pool_for(self, cells: int) -> Optional[ProcessPoolExecutor]:
        """The pool to run ``cells`` cold cells in, or ``None`` to run
        them inline: ``jobs == 1``, a closed executor, or a lone cell
        before the pool was started."""
        if self.jobs == 1 or (cells < 2 and not self._eager):
            return None
        with self._pool_lock:
            if self._closed:
                return None
            if self._pool is None:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=multiprocessing.get_context("spawn"))
            return self._pool

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken pool; the next pooled run builds a fresh one."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def run(
        self, cells: Sequence[Tuple[tuple, Union[ExperimentSpec, RunPlan]]],
        trace_parent=None,
    ) -> List[CellOutcome]:
        """Execute every cell (a spec or its plan, see
        :func:`~repro.core.experiment.plan`); returns outcomes in input
        order.

        The store is consulted first (warm cells cost nothing), then the
        remaining cells run — deduplicated, so two cells whose specs
        resolve identically simulate once and share the result.

        ``trace_parent`` (a :class:`~repro.obs.tracing.SpanContext`)
        parents the grid's distributed-trace spans when a ``tracer``
        was supplied; simulation results are identical either way.
        """
        from contextlib import nullcontext

        from .store import get_default_store

        telemetry = self.telemetry
        tracer = self.tracer
        store = self.store if self.store is not None else get_default_store()
        total = len(cells)
        outcomes: List[Optional[CellOutcome]] = [None] * total
        done = 0

        def record(index: int, outcome: CellOutcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            done += 1
            telemetry.counter("executor.cells_done").inc()
            if not outcome.ok:
                telemetry.counter("executor.failures").inc()
            if self.progress is not None:
                self.progress(done, total, outcome)

        grid_span = nullcontext() if tracer is None else tracer.start_span(
            "executor.grid", parent=trace_parent, cat="run",
            attrs={"cells": total})
        with grid_span:
            grid_ctx = None if tracer is None else grid_span.context

            # tier 1: plan each cell once, then ask the store.  A spec
            # the library refuses skips the store and fails in its own
            # cell's run (retries included), not the whole grid.
            specs: List[ExperimentSpec] = []  # resolved where planned
            runs: List[Optional[RunPlan]] = []
            pending: Dict[object, List[int]] = {}
            for index, (key, spec) in enumerate(cells):
                try:
                    run = plan(spec)
                except ReproError:
                    run = None
                specs.append(spec if run is None else run.spec)
                runs.append(run)
                get_start = time.perf_counter()
                cached = None if run is None else store.get(run)
                if cached is not None:
                    telemetry.counter("executor.cache_hits").inc()
                    if grid_ctx is not None:
                        tracer.record_span(
                            "cell.cached", cat="store",
                            duration_s=time.perf_counter() - get_start,
                            parent=grid_ctx, attrs={"key": str(key)})
                    record(index, CellOutcome(key, run.spec, result=cached,
                                              from_cache=True))
                else:
                    ident = spec if run is None else run.key
                    pending.setdefault(ident, []).append(index)
            groups = {indices[0]: indices for indices in pending.values()}

            # tier 2: simulate the distinct cold specs.  When the cells
            # run in the pool *and* the tracer has a durable log,
            # context rides in the payload and each worker records its
            # own span (real pid lanes); otherwise the parent records
            # the span from the measured wall time.  Every cell runs
            # the parent's plan as it is, in a pool worker too: the
            # plan holds the resolved mix and scenario, which a spawned
            # worker's registries may not know by name.
            pool = self._pool_for(len(groups)) if groups else None
            trace_payload = None
            if grid_ctx is not None and pool is not None \
                    and tracer.log_dir is not None:
                trace_payload = {
                    "traceparent": grid_ctx.to_traceparent(),
                    "log_dir": str(tracer.log_dir),
                    "service": f"{tracer.service}-sim",
                }
            payloads = {
                index: specs[index] if runs[index] is None else runs[index]
                for index in groups
            }
            jobs = {
                index: (index, payloads[index], self.epoch)
                if trace_payload is None
                else (index, payloads[index], self.epoch, trace_payload)
                for index in groups
            }
            for index, result, error, wall in self._execute(
                    pool, list(jobs.values())):
                key, spec, run = cells[index][0], specs[index], runs[index]
                result, error, wall, retried = self._maybe_retry(
                    jobs[index], spec, key, result, error, wall)
                telemetry.counter("executor.simulated").inc()
                telemetry.histogram(
                    "executor.cell_seconds",
                    bounds=(0.1, 0.5, 1, 2, 5, 10, 30, 60, 300),
                ).observe(wall)
                if grid_ctx is not None and trace_payload is None:
                    tracer.record_span(
                        "cell.simulate", cat="sim", duration_s=wall,
                        parent=grid_ctx,
                        attrs={"key": str(key)},
                        status="ok" if error is None else "error")
                if error is None:
                    put_start = time.perf_counter()
                    store.put(run, result)
                    if result.series is not None:
                        store.put_series(run, result.series)
                    if grid_ctx is not None:
                        tracer.record_span(
                            "store.put", cat="store",
                            duration_s=time.perf_counter() - put_start,
                            parent=grid_ctx, attrs={"key": str(key)})
                for cell_index in groups[index]:
                    record(cell_index, CellOutcome(
                        cells[cell_index][0], spec, result=result,
                        error=error, wall_time=wall,
                        from_cache=cell_index != index, retried=retried,
                    ))
        return outcomes  # type: ignore[return-value]

    def _maybe_retry(self, job: tuple, spec: ExperimentSpec,
                     key: tuple, result, error, wall: float):
        """Re-run a failed cold cell (``job``, its :func:`_run_cell`
        payload) up to ``self.retries`` times.

        Retries run serially in the parent — by then the original
        worker (possibly a crashed process) is gone, and a transient
        failure is exactly one that a clean re-run survives.  The job
        keeps its trace context, so a re-run records its own
        ``cell.simulate`` span where the worker would have.
        """
        attempt = 0
        while error is not None and attempt < self.retries:
            attempt += 1
            self.telemetry.counter("executor.retries").inc()
            if self.on_retry is not None:
                self.on_retry(key, spec, attempt, error)
            if self.retry_backoff > 0:
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            _index, result, error, retry_wall = _run_cell(job)
            wall += retry_wall
        return result, error, wall, attempt

    def _execute(self, pool: Optional[ProcessPoolExecutor],
                 jobs: List[tuple]):
        """Yield ``(index, result, error, wall_time)`` per cold cell,
        inline when ``pool`` is ``None``.

        A cell the pool lost (its process died, or the pool was shut
        down under it) yields the pool's error, which the caller's
        retries re-run in the parent; a broken pool is discarded.
        """
        if pool is None:
            for payload in jobs:
                yield _run_cell(payload)
            return
        from concurrent.futures import Future, as_completed
        from concurrent.futures.process import BrokenProcessPool

        futures = {}
        for payload in jobs:
            try:
                future = pool.submit(_run_cell, payload)
            except (BrokenProcessPool, RuntimeError) as exc:  # shut down
                future = Future()
                future.set_exception(exc)
            futures[future] = payload[0]
        for future in as_completed(futures):
            try:
                completed = future.result()
            except Exception as exc:  # the pool's, never the cell's own
                if isinstance(exc, BrokenProcessPool):
                    self._discard(pool)
                completed = (futures[future], None,
                             f"{type(exc).__name__}: {exc}", 0.0)
            yield completed
