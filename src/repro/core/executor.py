"""Parallel sweep execution.

A grid of experiments (the cartesian cells of a sweep or an
:class:`~repro.core.suite.ExperimentSuite`) is embarrassingly parallel:
every cell is an independent :func:`~repro.core.experiment.run_experiment`
call with a fully-resolved spec.  :class:`SweepExecutor` fans cells out
over a ``multiprocessing`` pool and funnels results through a
:class:`~repro.core.store.ResultStore`, so that

* a cell already present in the store is never re-simulated — not in
  this process, not in another, not in a later session (disk tier);
* an ``N``-job run is bit-identical to a serial run: each spec is
  planned (:func:`~repro.core.experiment.plan`) once *in the parent*
  before dispatch, so every worker sees the same explicit seed, and
  :class:`~repro.sim.rng.RngFactory` streams depend only on the spec;
* a refused or failing cell reports its exception (with traceback) in
  its :class:`CellOutcome` instead of aborting the rest of the grid.

Workers are spawn-safe: the worker function is a module-level callable
and its payload is the cell's picklable :class:`RunPlan`, so the
executor works under the ``spawn`` start method (the default here, and
the only safe choice on macOS/Windows or in threaded parents).  The
plan carries the resolved mix and scenario, so a mix or scenario
registered at run time in the parent runs in a worker whose own
registries never heard of it.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError, ReproError
from .experiment import ExperimentResult, ExperimentSpec, RunPlan, plan

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
    mp_context:
        ``multiprocessing`` start method for ``jobs > 1`` (default
        ``"spawn"``).
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
        ``executor.retries`` telemetry counter.  This is what makes a
        sweep resumable past a crashed worker process.
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
    """

    def __init__(
        self,
        jobs: int = 1,
        store=None,
        progress: Optional[ProgressCallback] = None,
        mp_context: str = "spawn",
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
        self.mp_context = mp_context
        self.telemetry = telemetry
        self.epoch = epoch
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.on_retry = on_retry
        self.tracer = tracer

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
            # fan out over a pool *and* the tracer has a durable log,
            # context rides in the payload and each worker records its
            # own span (real pid lanes); otherwise the parent records
            # the span from the measured wall time.  Every cell runs
            # the parent's plan as it is, in a pool worker too: the
            # plan holds the resolved mix and scenario, which a spawned
            # worker's registries may not know by name.
            pooled = self.jobs > 1 and len(groups) > 1
            trace_payload = None
            if grid_ctx is not None and pooled and tracer.log_dir is not None:
                trace_payload = {
                    "traceparent": grid_ctx.to_traceparent(),
                    "log_dir": str(tracer.log_dir),
                    "service": f"{tracer.service}-sim",
                }
            payloads = {
                index: specs[index] if runs[index] is None else runs[index]
                for index in groups
            }
            jobs = [
                (index, payloads[index], self.epoch) if trace_payload is None
                else (index, payloads[index], self.epoch, trace_payload)
                for index in groups
            ]
            for index, result, error, wall in self._execute(jobs):
                key, spec, run = cells[index][0], specs[index], runs[index]
                result, error, wall, retried = self._maybe_retry(
                    index, payloads[index], spec, key, result, error, wall)
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

    def _maybe_retry(self, index: int, payload, spec: ExperimentSpec,
                     key: tuple, result, error, wall: float):
        """Re-run a failed cold cell (``payload``, its spec or plan) up
        to ``self.retries`` times.

        Retries run serially in the parent — by then the original
        worker (possibly a crashed process) is gone, and a transient
        failure is exactly one that a clean re-run survives.
        """
        attempt = 0
        while error is not None and attempt < self.retries:
            attempt += 1
            self.telemetry.counter("executor.retries").inc()
            if self.on_retry is not None:
                self.on_retry(key, spec, attempt, error)
            if self.retry_backoff > 0:
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            _index, result, error, retry_wall = _run_cell(
                (index, payload, self.epoch))
            wall += retry_wall
        return result, error, wall, attempt

    def _execute(self, jobs: List[tuple]):
        """Yield ``(index, result, error, wall_time)`` per cold cell."""
        if not jobs:
            return
        if self.jobs == 1 or len(jobs) == 1:
            for payload in jobs:
                yield _run_cell(payload)
            return
        import multiprocessing

        context = multiprocessing.get_context(self.mp_context)
        workers = min(self.jobs, len(jobs))
        with context.Pool(processes=workers) as pool:
            for completed in pool.imap_unordered(_run_cell, jobs):
                yield completed
