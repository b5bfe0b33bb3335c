"""Sharded multi-worker service fleet behind one HTTP front end.

``repro fleet`` scales the single-process service horizontally: N
worker processes — each a full :class:`~repro.service.server
.ServiceServer` (journaled queue, scheduler, executor) — behind an
asyncio front end that

* **routes** every submitted job over a consistent-hash ring
  (:class:`~repro.service.ring.HashRing`) keyed by the job's content
  identity (:func:`~repro.service.jobs.job_key_of`), so identical
  spec sets always land on the same worker and that worker's
  in-flight coalescing keeps working fleet-wide;
* **dedups fleet-wide** through the shared content-addressed
  :class:`~repro.core.store.ResultStore`: every worker mounts the
  same store directory (safe for concurrent multi-process writers),
  so a cell simulated by one worker is a warm hit on all of them;
* **health-checks** workers and, when one dies, removes it from the
  ring (minimal remap — only its keys move) and **journal-replays**
  its non-terminal jobs onto the survivors with their job ids
  preserved, so clients polling through the front end never notice
  beyond added latency; replays that bounce off survivor
  backpressure (429/503) are parked and retried by the health loop
  until a survivor admits them, with the journaled record served to
  pollers in the meantime;
* **aggregates** observability: ``/metrics`` merges every worker's
  telemetry snapshot (per-worker queue depth, queue-wait and
  end-to-end job latency histograms) with the front end's own
  routing metrics.

The front end speaks the same HTTP API as a single worker (``POST
/jobs``, ``GET /jobs[/<id>]``, ``GET /results/<key>``, ``/healthz``,
``/metrics``), so :class:`~repro.service.client.ServiceClient`,
``repro submit`` and ``repro loadgen`` work against either
unmodified.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.store import ResultStore
from ..errors import ConfigurationError, ServiceError
from ..obs.telemetry import Telemetry, merge_snapshots, render_prometheus
from ..obs.tracing import TRACEPARENT_HEADER, SpanContext
from .httpcommon import HttpService, fetch
from .jobs import JobQueue, JobState
from .ring import HashRing
from .scheduler import LATENCY_BOUNDS
from .server import client_key_of, parse_job_body

__all__ = ["FleetServer", "WorkerHandle"]


def _worker_main(conn, config: dict) -> None:
    """Child-process body: run one ServiceServer, report its port.

    Top-level so the spawn context can pickle it.  The child owns its
    own asyncio loop and signal handlers: SIGTERM drains it exactly
    like a standalone ``repro serve`` process.
    """
    from .server import ServiceServer

    server = ServiceServer(**config)

    async def _run() -> None:
        await server.start()
        conn.send(server.port)
        conn.close()
        await server.serve()

    asyncio.run(_run())


@dataclass
class WorkerHandle:
    """The front end's view of one worker process."""

    name: str
    process: multiprocessing.process.BaseProcess
    port: int
    journal: Path
    alive: bool = True
    fails: int = 0

    def describe(self) -> dict:
        return {
            "port": self.port,
            "pid": self.process.pid,
            "alive": self.alive,
            "consecutive_fails": self.fails,
        }


@dataclass
class _Route:
    """Where one fleet-admitted job lives (and its replay payload).

    ``worker=None`` means the owning worker died and the job is
    parked awaiting re-admission (see :class:`_PendingReplay`);
    ``snapshot`` then carries the journaled record served to pollers
    until a survivor accepts the replay.
    """

    worker: Optional[str]
    body: dict
    job_key: str
    client: str
    snapshot: Optional[dict] = None
    replays: int = 0
    trace: Optional[str] = None
    """``traceparent`` of the front end's accept span, if traced."""


@dataclass
class _PendingReplay:
    """A dead worker's job waiting for a survivor with queue room.

    The first replay attempt happens inline during failover; if every
    survivor answers 429/503 the job lands here and the health loop
    keeps retrying until one admits it (or ``replay_retries`` ticks
    pass, which pins a terminal error so clients see a definitive
    failure instead of polling forever).
    """

    job_id: str
    job_key: str
    body: dict
    client: str
    snapshot: dict
    attempts: int = 0
    trace: Optional[str] = None


WORKER_KNOBS = ("queue_limit", "rate", "burst", "executor_jobs",
                "concurrency", "max_attempts", "backoff_base",
                "backoff_cap", "executor_retries")
"""The :class:`ServiceServer` parameters a fleet forwards to each
worker; the worker's signature holds their defaults."""


class FleetServer(HttpService):
    """N service workers behind a consistent-hash routing front end.

    Parameters
    ----------
    workers:
        Worker process count (>= 1).
    store:
        Directory of the shared result store.  All workers and the
        front end mount it; it is the fleet-wide dedup backbone.
        ``None`` creates a temporary directory (fine for tests, wrong
        for production — results vanish with it).
    journal_dir:
        Directory for per-worker job journals
        (``worker-<name>.jsonl``).  Reusing the same directory across
        fleet restarts replays each worker's pending jobs.  ``None``
        creates a temporary directory.
    host, port:
        Front-end bind address (port ``0`` picks a free port).
    replicas:
        Virtual ring points per worker (balance knob).
    health_interval, health_fails:
        Seconds between health probes, and consecutive probe failures
        before a worker is declared dead.  A dead *process* is failed
        immediately regardless.
    proxy_timeout:
        Per-request timeout talking to workers.
    replay_retries:
        Health-loop ticks a parked failover replay is retried against
        survivor backpressure before the job is pinned terminal with
        an error (default 240 ≈ one minute at the default interval).
    trust_proxy_headers:
        Honour ``X-Client-Id``/``X-Forwarded-For`` from the front
        end's *own* clients (only sane when the fleet itself sits
        behind another trusted proxy).  Workers always trust these
        headers from the front end.
    trace_dir:
        Shared span-log directory enabling distributed tracing: the
        front end roots a ``job.accept`` span per submission and every
        worker (and its executor subprocesses) appends spans to its own
        log under this directory.  ``repro trace --job <id>
        --trace-dir <dir>`` merges them.  ``None`` disables tracing.
    queue_limit, rate, burst, executor_jobs, concurrency,
    max_attempts, backoff_base, backoff_cap, executor_retries:
        Forwarded to each worker's :class:`ServiceServer`.
    """

    metric_prefix = "fleet"
    START_TIMEOUT = 120.0
    DRAIN_TIMEOUT = 120.0
    FINALS_CAP = 4096
    """Terminal records pinned at the front end after worker deaths."""
    SEEN_CAP = 65536
    """Retired job ids remembered for the duplicate-id check."""

    def __init__(
        self,
        workers: int = 2,
        store: Optional[Union[str, Path]] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 64,
        health_interval: float = 0.25,
        health_fails: int = 3,
        proxy_timeout: float = 30.0,
        replay_retries: int = 240,
        trust_proxy_headers: bool = False,
        telemetry: Optional[Telemetry] = None,
        trace_dir: Optional[Union[str, Path]] = None,
        **worker_knobs,
    ):
        if workers < 1:
            raise ConfigurationError(
                f"fleet needs at least one worker, got {workers}")
        unknown = sorted(set(worker_knobs) - set(WORKER_KNOBS))
        if unknown:
            raise TypeError(f"FleetServer() got unexpected worker "
                            f"knob(s): {', '.join(unknown)}")
        super().__init__(host, port, telemetry, trace_dir, "fleet-front")
        self.worker_knobs = worker_knobs
        self.worker_count = int(workers)
        if store is None:
            store = tempfile.mkdtemp(prefix="repro-fleet-store-")
        if journal_dir is None:
            journal_dir = tempfile.mkdtemp(prefix="repro-fleet-journal-")
        self.store_path = Path(store)
        self.journal_dir = Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.replicas = replicas
        self.health_interval = health_interval
        self.health_fails = health_fails
        self.proxy_timeout = proxy_timeout
        self.replay_retries = replay_retries
        self.trust_proxy_headers = trust_proxy_headers
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.store = ResultStore(self.store_path, telemetry=self.telemetry)
        self.ring = HashRing(replicas=replicas)
        self.workers: Dict[str, WorkerHandle] = {}
        self._routes: Dict[str, _Route] = {}
        self._pending_replays: Dict[str, _PendingReplay] = {}
        self._finals: "OrderedDict[str, dict]" = OrderedDict()
        self._seen_ids: "OrderedDict[str, None]" = OrderedDict()
        self._mp = multiprocessing.get_context("spawn")
        self._failover_lock: Optional[asyncio.Lock] = None
        self._draining = False

    # -- worker lifecycle ----------------------------------------------

    def _worker_config(self, name: str) -> dict:
        return {
            **self.worker_knobs,
            "store": str(self.store_path),
            "journal": str(self.journal_dir / f"worker-{name}.jsonl"),
            "host": "127.0.0.1",
            "port": 0,
            # the only peer a worker hears from is the front end, whose
            # forwarded identity headers are authoritative
            "trust_proxy_headers": True,
            **({"trace_dir": str(self.trace_dir),
                "trace_service": f"service-{name}"}
               if self.trace_dir is not None else {}),
        }

    def _spawn_worker(self, name: str) -> WorkerHandle:
        """Blocking: start one worker process and wait for its port."""
        config = self._worker_config(name)
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_worker_main, args=(child_conn, config),
            name=f"repro-fleet-{name}", daemon=True)
        process.start()
        child_conn.close()
        if not parent_conn.poll(timeout=60):
            process.kill()
            raise ServiceError(f"fleet worker {name} failed to start")
        try:
            port = parent_conn.recv()
        except EOFError:
            process.kill()
            raise ServiceError(
                f"fleet worker {name} died during startup") from None
        parent_conn.close()
        return WorkerHandle(
            name=name, process=process, port=port,
            journal=Path(config["journal"]))

    # -- role steps ----------------------------------------------------

    async def _before_bind(self) -> None:
        """Spawn the workers; every one that started joins the ring."""
        self._failover_lock = asyncio.Lock()
        spawned = await asyncio.gather(
            *(asyncio.to_thread(self._spawn_worker, f"w{i}")
              for i in range(self.worker_count)),
            return_exceptions=True)
        for handle in spawned:
            if isinstance(handle, WorkerHandle):
                self.workers[handle.name] = handle
                self.ring.add(handle.name)
        self.telemetry.gauge("fleet.workers").set(len(self.ring))
        for failure in spawned:
            if isinstance(failure, BaseException):
                raise failure

    def _stop_admitting(self) -> None:
        self._draining = True

    async def _wind_down(self) -> None:
        """Stop health checks, then SIGTERM and join every worker."""
        if self._task is not None:
            self._task.cancel()
        for worker in self.workers.values():
            if worker.process.is_alive():
                worker.process.terminate()  # SIGTERM -> worker drains

        def _join_all() -> None:
            for worker in self.workers.values():
                worker.process.join(timeout=60)

        await asyncio.to_thread(_join_all)

    def abort(self) -> None:
        """Ungraceful stop: kill the workers and the loop outright."""
        for name in self.workers:
            self.kill_worker(name)
        super().abort()

    # -- chaos / test hooks --------------------------------------------

    def kill_worker(self, name: str) -> None:
        """SIGKILL one worker (thread-safe chaos hook for tests).

        The health loop (or the next failed forward) notices, removes
        it from the ring, and replays its journal onto the survivors.
        """
        worker = self.workers[name]
        if worker.process.is_alive():
            worker.process.kill()

    @property
    def live_workers(self) -> List[str]:
        return [name for name, w in self.workers.items() if w.alive]

    def route_of(self, job_id: str) -> Optional[str]:
        """Which worker currently owns a fleet-admitted job id."""
        route = self._routes.get(job_id)
        return route.worker if route else None

    # -- health + failover ---------------------------------------------

    async def _background(self) -> None:
        """The health loop: probe the workers, retry parked replays."""
        while True:
            await asyncio.sleep(self.health_interval)
            await asyncio.gather(
                *(self._check_worker(name) for name in self.live_workers),
                return_exceptions=True)
            try:
                await self._drain_pending_replays()
            except Exception:
                self.telemetry.counter("fleet.replay_errors").inc()

    async def _check_worker(self, name: str) -> None:
        worker = self.workers.get(name)
        if worker is None or not worker.alive:
            return
        if not worker.process.is_alive():
            await self._fail_worker(name, "process died")
            return
        try:
            status, _headers, _payload = await fetch(
                "127.0.0.1", worker.port, "GET", "/healthz",
                timeout=max(1.0, 4 * self.health_interval))
            ok = status == 200
        except ServiceError:
            ok = False
        if ok:
            worker.fails = 0
            return
        worker.fails += 1
        if worker.fails >= self.health_fails:
            await self._fail_worker(
                name, f"{worker.fails} consecutive health failures")

    async def _fail_worker(self, name: str, reason: str) -> None:
        """Remove a dead worker and replay its journal onto survivors.

        The lock serialises concurrent failure detections (health
        loop, submit path, poll path).  It is NOT reentrant: any code
        already holding it (replay discovering a second dead worker)
        must go through :meth:`_fail_worker_locked` instead.
        """
        async with self._failover_lock:
            await self._fail_worker_locked(name, reason)

    async def _fail_worker_locked(self, name: str, reason: str) -> None:
        """:meth:`_fail_worker` body; caller holds ``_failover_lock``."""
        worker = self.workers.get(name)
        if worker is None or not worker.alive:
            return
        worker.alive = False
        if name in self.ring:
            self.ring.remove(name)
        self.telemetry.counter("fleet.worker_deaths").inc()
        self.telemetry.gauge("fleet.workers").set(len(self.ring))
        if worker.process.is_alive():
            worker.process.kill()
        await self._replay_journal(worker, reason)

    async def _replay_journal(self, worker: WorkerHandle,
                              reason: str) -> None:
        """Re-route the dead worker's non-terminal jobs.

        The worker journaled every admission and transition before
        acting on it, so its journal is the authoritative record of
        what it still owed.  Terminal jobs are pinned at the front end
        (their results live in the shared store); everything else is
        re-submitted — same job id, same cells, same priority — to
        whichever survivor the shrunken ring now picks.  A replay the
        survivors bounce (429 backpressure, 503) is parked in
        ``_pending_replays`` and retried by the health loop, never
        dropped.

        Runs while holding ``_failover_lock``, so forwarding goes
        through the locked failover path (a survivor found dead here
        is failed without re-acquiring the lock).
        """
        if not worker.journal.exists():
            return
        recovered = JobQueue(worker.journal)  # read-only replay
        recovered.close()
        for job in recovered.jobs():
            route = self._routes.get(job.job_id)
            if job.state in JobState.TERMINAL:
                record = job.to_dict()
                record["worker"] = worker.name
                self._pin_final(job.job_id, record)
                continue
            # re-join the job's original trace: the accept span if the
            # front end routed it, else the dead worker's journaled
            # submit context
            _status, admitted = await self._replay(
                job.job_key, _job_body(job), job.client,
                (route.trace if route is not None else None) or job.trace,
                {"job_id": job.job_id, "dead_worker": worker.name},
                locked=True)
            if admitted:
                self.telemetry.counter("fleet.replayed").inc()
                if route is not None:
                    route.replays += 1
            else:
                self._defer_replay(job, route)

    def _defer_replay(self, job, route: Optional[_Route]) -> None:
        """Park a bounced replay for the health loop to retry."""
        snapshot = job.to_dict()
        snapshot["state"] = JobState.SUBMITTED
        snapshot["worker"] = None
        if route is not None:
            route.worker = None
            route.snapshot = snapshot
        self._pending_replays[job.job_id] = _PendingReplay(
            job_id=job.job_id, job_key=job.job_key,
            body=_job_body(job), client=job.client, snapshot=snapshot,
            trace=(route.trace if route is not None else None) or job.trace)
        self.telemetry.counter("fleet.replay_deferred").inc()

    async def _drain_pending_replays(self) -> None:
        """Retry parked replays (health-loop tick, lock not held)."""
        for job_id in list(self._pending_replays):
            entry = self._pending_replays.get(job_id)
            if entry is None:
                continue
            status, admitted = await self._replay(
                entry.job_key, entry.body, entry.client, entry.trace,
                {"job_id": job_id, "attempt": entry.attempts + 1})
            if admitted:
                self._pending_replays.pop(job_id, None)
                route = self._routes.get(job_id)
                if route is not None:
                    route.snapshot = None
                    route.replays += 1
                self.telemetry.counter("fleet.replayed").inc()
                continue
            entry.attempts += 1
            if entry.attempts >= self.replay_retries:
                # give the client a definitive failure instead of an
                # eternally-queued phantom
                self._pending_replays.pop(job_id, None)
                record = dict(entry.snapshot)
                record["state"] = JobState.QUARANTINED
                record["error"] = (
                    f"failover replay exhausted after "
                    f"{entry.attempts} attempts (last status {status})")
                self._pin_final(job_id, record)
                self.telemetry.counter("fleet.replay_failures").inc()

    async def _replay(self, job_key: str, body: dict, client: str,
                      trace: Optional[str], attrs: dict,
                      locked: bool = False):
        """Forward one replay under a ``job.replay`` span.

        Returns ``(status, admitted)``; a duplicate-id answer counts as
        admitted (an earlier attempt already made it).
        """
        headers = {"X-Client-Id": client}
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                "job.replay", parent=SpanContext.parse(trace),
                cat="replay", attrs=attrs)
            headers[TRACEPARENT_HEADER] = span.context.to_traceparent()
        status, payload = await self._forward(job_key, body, headers,
                                              locked=locked)
        admitted = status == 202 or (
            status == 400 and isinstance(payload, dict)
            and "duplicate job id" in str(payload.get("error", "")))
        if span is not None:
            span.set_attr("http_status", status)
            if not admitted:
                span.status = "error"
            span.finish()
        return status, admitted

    async def _forward(self, job_key: str, body: dict,
                       headers: dict, locked: bool = False):
        """POST one job to the ring's pick, failing workers over.

        Returns ``(status, payload)``; records the route on 202.
        Retries through worker deaths until the ring is empty.
        ``locked`` means the caller already holds ``_failover_lock``
        (journal replay), so dead survivors are failed via the
        non-locking path — re-acquiring the lock here would deadlock.
        """
        for _attempt in range(self.worker_count + 1):
            if len(self.ring) == 0:
                return 503, {"error": "no live workers"}
            name = self.ring.lookup(job_key)
            worker = self.workers[name]
            try:
                status, _resp_headers, payload = await fetch(
                    "127.0.0.1", worker.port, "POST", "/jobs",
                    body=body, headers=headers,
                    timeout=self.proxy_timeout)
            except ServiceError:
                self.telemetry.counter("fleet.rerouted").inc()
                if locked:
                    await self._fail_worker_locked(
                        name, "unreachable during submit")
                else:
                    await self._fail_worker(
                        name, "unreachable during submit")
                continue
            if status == 202:
                job_id = payload.get("job", {}).get("job_id")
                if job_id:
                    route = self._routes.get(job_id)
                    if route is None:
                        self._routes[job_id] = _Route(
                            worker=name, body=body, job_key=job_key,
                            client=headers.get("X-Client-Id", "anon"),
                            trace=headers.get(TRACEPARENT_HEADER))
                    else:
                        route.worker = name
                        route.snapshot = None
            return status, payload
        return 502, {"error": "no worker accepted the job"}

    # -- front-end job bookkeeping -------------------------------------

    def _pin_final(self, job_id: str, record: dict) -> None:
        """Keep a terminal record the workers can no longer serve.

        Bounded: the oldest pinned record falls off once FINALS_CAP is
        reached (its result still lives in the shared store); the id
        moves to the seen-set so duplicate submissions stay rejected.
        """
        self._routes.pop(job_id, None)
        self._pending_replays.pop(job_id, None)
        self._finals[job_id] = record
        self._finals.move_to_end(job_id)
        while len(self._finals) > self.FINALS_CAP:
            old_id, _record = self._finals.popitem(last=False)
            self._remember_seen(old_id)

    def _remember_seen(self, job_id: str) -> None:
        self._seen_ids[job_id] = None
        self._seen_ids.move_to_end(job_id)
        while len(self._seen_ids) > self.SEEN_CAP:
            self._seen_ids.popitem(last=False)

    def _retire_route(self, job_id: str) -> None:
        """Drop a route observed terminal at a live worker.

        The worker keeps the authoritative record (later polls reach
        it through the broadcast fallback); the front end only needs
        the id for the duplicate check.  This is what keeps
        ``_routes`` bounded by in-flight work instead of growing with
        every job ever admitted.
        """
        if self._routes.pop(job_id, None) is not None:
            self._remember_seen(job_id)

    def _local_job(self, job_id: str) -> Optional[dict]:
        """A record the front end can serve without any worker."""
        final = self._finals.get(job_id)
        if final is not None:
            return final
        route = self._routes.get(job_id)
        if route is not None and route.worker is None \
                and route.snapshot is not None:
            return route.snapshot
        pending = self._pending_replays.get(job_id)
        if pending is not None:
            return pending.snapshot
        return None

    # -- request handling ----------------------------------------------

    async def _route(self, method, path, query, headers, body, writer):
        if path == "/healthz" and method == "GET":
            return 200, self._healthz(), {}
        if path == "/metrics" and method == "GET":
            return await self._metrics(query)
        if path == "/jobs" and method == "POST":
            return await self._submit(headers, body, writer)
        if path == "/jobs" and method == "GET":
            return await self._list_jobs()
        if path.startswith("/jobs/") and method == "GET":
            return await self._get_job(path[len("/jobs/"):])
        return self._shared_route(method, path)

    # -- endpoints -----------------------------------------------------

    async def _submit(self, headers, body, writer):
        if self.tracer is None:
            return await self._submit_inner(headers, body, writer, None)
        # The fleet's accept span is the trace root for untraced
        # clients; a client-minted traceparent parents it instead.
        parent = SpanContext.parse(headers.get(TRACEPARENT_HEADER))
        with self.tracer.start_span("job.accept", parent=parent,
                                    cat="route") as span:
            status, payload, extra = await self._submit_inner(
                headers, body, writer, span)
            span.set_attr("http_status", status)
            if status >= 400:
                span.status = "error"
            return status, payload, extra

    async def _submit_inner(self, headers, body, writer, span):
        if self._draining:
            return 503, {"error": "fleet is draining"}, {}
        client = client_key_of(headers, writer,
                               trust_headers=self.trust_proxy_headers)
        job = parse_job_body(body, client)
        if job.job_id in self._routes or job.job_id in self._finals \
                or job.job_id in self._seen_ids:
            return 400, {"error": f"duplicate job id {job.job_id!r}"}, {}
        forward_headers = {"X-Client-Id": client}
        if span is not None:
            span.set_attr("job_id", job.job_id)
            span.set_attr("client", client)
            forward_headers[TRACEPARENT_HEADER] = \
                span.context.to_traceparent()
        peer = writer.get_extra_info("peername")
        if peer:
            # only propagate a caller-supplied forwarding chain when
            # this front end itself trusts its callers; otherwise it
            # starts a fresh chain at the socket peer
            forwarded = headers.get("x-forwarded-for") \
                if self.trust_proxy_headers else None
            forward_headers["X-Forwarded-For"] = (
                f"{forwarded}, {peer[0]}" if forwarded else peer[0])
        forward_body = _job_body(job)
        start = time.monotonic()
        status, payload = await self._forward(
            job.job_key, forward_body, forward_headers)
        elapsed = time.monotonic() - start
        self.telemetry.histogram(
            "fleet.submit_seconds", bounds=LATENCY_BOUNDS
        ).observe(elapsed)
        if span is not None:
            self.tracer.record_span(
                "fleet.forward", cat="route", duration_s=elapsed,
                parent=span.context,
                attrs={"job_id": job.job_id, "http_status": status})
        extra = {}
        if status == 429:
            extra["retry_after"] = 2
        return status, payload, extra

    async def _get_job(self, job_id: str):
        record = self._local_job(job_id)
        if record is not None:
            return 200, {"job": record}, {}
        route = self._routes.get(job_id)
        if route is None:
            # not fleet-admitted (or retired/pre-restart): ask every
            # worker — whichever ran it keeps the record
            found = await self._ask_workers(f"/jobs/{job_id}")
            if found:
                return 200, next(iter(found.values())), {}
            return 404, {"error": "unknown job"}, {}
        response = await self._poll_route(job_id, route)
        if response is not None:
            return response
        # the owning worker died mid-poll: wait for the in-flight
        # failover to re-route (or pin/park) the job, then re-check
        async with self._failover_lock:
            pass
        record = self._local_job(job_id)
        if record is not None:
            return 200, {"job": record}, {}
        route = self._routes.get(job_id)
        if route is not None:
            response = await self._poll_route(job_id, route)
            if response is not None:
                return response
        return 502, {"error": f"job {job_id} temporarily unroutable"}, {}

    async def _poll_route(self, job_id: str, route: _Route):
        """Proxy one job poll to its worker; ``None`` if it just died."""
        if route.worker is None:
            return None  # parked mid-transition; caller re-checks
        worker = self.workers.get(route.worker)
        if worker is None or not worker.alive:
            return None
        try:
            status, _h, payload = await fetch(
                "127.0.0.1", worker.port, "GET", f"/jobs/{job_id}",
                timeout=self.proxy_timeout)
        except ServiceError:
            await self._fail_worker(route.worker,
                                    "unreachable during poll")
            return None
        if status == 200 and isinstance(payload, dict):
            record = payload.get("job")
            if isinstance(record, dict) and \
                    record.get("state") in JobState.TERMINAL:
                self._retire_route(job_id)
        return status, payload, {}

    async def _ask_workers(self, path: str) -> Dict[str, dict]:
        """``GET path`` on every live worker at once: the JSON object
        each one answered with ``200``, by worker name."""
        names = self.live_workers

        async def ask(name: str) -> Optional[dict]:
            try:
                status, _h, payload = await fetch(
                    "127.0.0.1", self.workers[name].port, "GET", path,
                    timeout=self.proxy_timeout)
            except ServiceError:
                return None
            return payload if status == 200 and \
                isinstance(payload, dict) else None

        replies = await asyncio.gather(*(ask(name) for name in names))
        return {name: payload for name, payload in zip(names, replies)
                if payload is not None}

    async def _list_jobs(self):
        jobs: List[dict] = []
        for name, payload in (await self._ask_workers("/jobs")).items():
            for job in payload.get("jobs", []):
                job["worker"] = name
                jobs.append(job)
        # jobs no live worker can report: terminal records pinned
        # after a worker death, and parked failover replays
        local = [*self._finals.items(),
                 *((job_id, route.snapshot)
                   for job_id, route in self._routes.items()
                   if route.worker is None and route.snapshot is not None),
                 *((job_id, entry.snapshot)
                   for job_id, entry in self._pending_replays.items())]
        listed = {job.get("job_id") for job in jobs}
        for job_id, record in local:
            if job_id not in listed:
                listed.add(job_id)
                jobs.append(_summary_of(record))
        return 200, {"jobs": jobs}, {}

    def _healthz(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "role": "fleet-front-end",
            "uptime_s": round(time.monotonic() - self._start_time, 3),
            "workers": {name: worker.describe()
                        for name, worker in self.workers.items()},
            "live_workers": len(self.ring),
            "ring": self.ring.describe(),
            "routed_jobs": len(self._routes),
            "pinned_jobs": len(self._finals),
            "pending_replays": len(self._pending_replays),
            "store": repr(self.store),
        }

    async def _metrics(self, query: str):
        worker_snaps = await self._ask_workers("/metrics")
        self.slo.export(self.telemetry, "fleet.slo")
        own = self.telemetry.snapshot()
        own.pop("series", None)
        for name, snap in worker_snaps.items():
            depth = snap.get("gauges", {}).get("service.queue_depth", 0)
            own.setdefault("gauges", {})[
                f"fleet.worker_depth.{name}"] = depth
        aggregate = merge_snapshots([own] + list(worker_snaps.values()))
        if "format=prometheus" in query:
            text = render_prometheus(aggregate)
            return 200, text, {"content_type": "text/plain; version=0.0.4"}
        return 200, {"fleet": own, "workers": worker_snaps,
                     "aggregate": aggregate}, {}


def _job_body(job) -> dict:
    """The ``POST /jobs`` payload that reproduces ``job`` exactly."""
    specs = []
    for key, spec in job.cells:
        entry = dataclasses.asdict(spec)
        entry["key"] = list(key)
        specs.append(entry)
    return {"specs": specs, "priority": job.priority,
            "job_id": job.job_id}


def _summary_of(record: dict) -> dict:
    """Listing view of a pinned/parked record (specs elided)."""
    summary = dict(record)
    cells = summary.get("cells")
    if isinstance(cells, list):
        summary["cells"] = len(cells)
    return summary
