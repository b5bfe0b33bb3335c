"""The simulation service's HTTP front end (stdlib asyncio only).

A deliberately small HTTP/1.1 JSON API — no framework, no threads per
connection — in front of the :class:`~repro.service.scheduler
.JobScheduler`:

====================  =================================================
``POST /jobs``        submit a batch of experiment specs; ``202`` with
                      the job record, ``400`` on malformed bodies,
                      ``429`` + ``Retry-After`` under backpressure or
                      rate limiting, ``503`` while draining
``GET /jobs``         every known job (summaries)
``GET /jobs/<id>``    one job's full record; ``?wait=S`` holds the
                      answer until the job is terminal, S seconds
                      pass (capped) or the server drains
``GET /results/<k>``  a stored result by spec key (``404`` on miss)
``GET /healthz``      liveness, queue depths and pool size (``jobs``)
``GET /metrics``      telemetry snapshot (JSON; ``?format=prometheus``
                      for text exposition)
====================  =================================================

Backpressure is bounded-queue admission: when ``queue_limit`` jobs are
already pending the server answers ``429`` with a ``Retry-After`` hint
instead of buffering unboundedly — callers are expected to back off
(the bundled :class:`~repro.service.client.ServiceClient` does).

On ``SIGTERM`` (and ``SIGINT``) the server *drains*: it stops
admitting jobs (``503``), lets the running jobs finish their cells,
shuts its process pool down, and exits; everything still pending is in
the journal and replays on the next start.

Connections are persistent HTTP/1.1: a socket answers request after
request until the client sends ``Connection: close`` (or speaks
HTTP/1.0 without ``keep-alive``),
:data:`~repro.service.httpcommon.KEEPALIVE_IDLE_SECONDS` pass without
a request, or the server drains, shuts down or aborts.  A request the
server cannot frame is a 400 and closes the socket; a handler crash is
a 500.  Idle sockets are closed at wind-down:
``asyncio.Server.wait_closed`` waits for every open connection on
Python 3.12.1 and later.  The wire format is
:mod:`repro.service.httpcommon`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import inspect
import json
import signal
import threading
import time
from pathlib import Path
from typing import Optional, Union

from ..core.experiment import ExperimentSpec, spec_from_dict
from ..core.store import ResultStore
from ..errors import ReproError, ServiceError
from ..obs.slo import SloTracker
from ..obs.telemetry import Telemetry, render_prometheus
from ..obs.tracing import TRACEPARENT_HEADER, SpanContext, Tracer
from .httpcommon import (KEEPALIVE_IDLE_SECONDS, BadRequest, job_wait,
                         read_request, respond)
from .jobs import Job, JobQueue
from .ratelimit import TokenBucket
from .scheduler import JobScheduler

__all__ = ["ServiceServer", "client_key_of", "parse_job_body"]


def client_key_of(headers: dict, writer,
                  trust_headers: bool = False) -> str:
    """The rate-limit identity of a request.

    ``X-Client-Id`` and ``X-Forwarded-For`` are whatever the peer
    chose to send, so a direct client could mint a fresh identity per
    request and sail past any per-client token bucket.  They are
    therefore honoured only with ``trust_headers=True`` — the peer is
    a vouched-for proxy (a server run with ``--behind-proxy``).  Then
    ``X-Client-Id`` wins and the first (leftmost) ``X-Forwarded-For``
    hop — the originating client — is next, so clients sharing the
    proxy hop don't share one bucket.  Untrusted (the default), the socket peer
    address is the identity.
    """
    if trust_headers:
        client = headers.get("x-client-id")
        if client:
            return client
        forwarded = headers.get("x-forwarded-for")
        if forwarded:
            first = forwarded.split(",")[0].strip()
            if first:
                return first
    peer = writer.get_extra_info("peername") if writer else None
    return peer[0] if peer else "anon"


#: JSON value types each declared spec field type admits; no field is
#: a bool, so JSON true/false are refused everywhere (they are not
#: integers here, although Python's bool subclasses int)
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "Optional[int]": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
}
_SPEC_FIELD_TYPES = {
    f.name: _JSON_TYPES[f.type] for f in dataclasses.fields(ExperimentSpec)
}


def _check_spec_types(index: int, entry: dict) -> None:
    """Refuse a spec value whose JSON type its field does not declare."""
    for name, value in entry.items():
        if name not in _SPEC_FIELD_TYPES:
            continue  # spec_from_dict refuses unknown and retired fields
        types, wanted = _SPEC_FIELD_TYPES[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise BadRequest(
                f"spec #{index}: field {name!r} must be {wanted}, "
                f"got {json.dumps(value)}")


def parse_job_body(body: Optional[bytes], client: str) -> Job:
    """Decode a ``POST /jobs`` body into a :class:`Job`."""
    if not body:
        raise BadRequest("POST /jobs needs a JSON body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise BadRequest("body must be a JSON object")
    unknown = sorted(set(payload) - {"specs", "priority"})
    if unknown:
        raise BadRequest(f"unknown job field(s) "
                         f"{', '.join(map(repr, unknown))}; a job takes "
                         f"'specs' and 'priority'")
    specs = payload.get("specs")
    if not isinstance(specs, list) or not specs:
        raise BadRequest("'specs' must be a non-empty list")
    cells = []
    for index, entry in enumerate(specs):
        if not isinstance(entry, dict):
            raise BadRequest(f"spec #{index} is not an object")
        entry = dict(entry)
        key = entry.pop("key", [index])
        if not isinstance(key, list):
            raise BadRequest(f"spec #{index}: 'key' must be a list, "
                             f"got {json.dumps(key)}")
        _check_spec_types(index, entry)
        try:
            spec = spec_from_dict(entry)
        except (TypeError, ReproError) as exc:
            raise BadRequest(f"spec #{index}: {exc}") from None
        cells.append((tuple(key), spec))
    priority = payload.get("priority", 10)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise BadRequest("'priority' must be an integer")
    try:
        # planning each cell (to key it) refuses a spec the library refuses
        return Job.create(cells, priority=priority, client=client)
    except ReproError as exc:
        raise BadRequest(f"invalid spec: {exc}") from None


class ServiceServer:
    """A long-running simulation service bound to one store + journal.

    It owns the lifecycle (process pool and bind, the scheduler as its
    one background task, SIGTERM/SIGINT drain, :meth:`start_in_thread`,
    :meth:`shutdown`, :meth:`abort`) and the request loop (400 on
    malformed requests, 500 on handler crashes, the
    ``service.http_requests`` counter and the SLO observation).

    Parameters
    ----------
    store:
        A :class:`ResultStore`, or a path for its disk tier, or
        ``None`` for memory-only.
    journal:
        Job-journal path (``None`` = volatile queue).
    host, port:
        Bind address; port ``0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    queue_limit:
        Pending-job bound before ``429`` backpressure.
    rate, burst:
        Per-client token-bucket rate limit (``rate<=0`` disables).
    trust_proxy_headers:
        Key rate-limit buckets on ``X-Client-Id``/``X-Forwarded-For``
        instead of the socket peer.  Only enable when every direct
        peer is a trusted proxy (``repro serve --behind-proxy``) — the
        headers are client-controlled and spoofable otherwise.
    executor_jobs, concurrency, max_attempts, backoff_base,
    backoff_cap, executor_retries:
        Forwarded to the :class:`JobScheduler`: ``executor_jobs`` is
        the size of the process pool that starts and stops with the
        server (1 = cells run in the server process) and
        ``concurrency`` (default ``executor_jobs``) the number of jobs
        run at once.
    trace_dir:
        When set the server joins distributed traces: incoming
        ``traceparent`` headers parent a ``service.submit`` span,
        context flows through scheduler and executor, and spans land
        in a per-process log under ``trace_dir`` (see
        ``docs/observability.md``).  ``None`` (default) disables
        tracing entirely.
    """

    START_TIMEOUT = 10.0
    """Seconds :meth:`start_in_thread` waits for the socket."""
    DRAIN_TIMEOUT = 30.0
    """Seconds :meth:`shutdown` waits for the drain to finish."""

    def __init__(
        self,
        store: Optional[Union[str, Path, ResultStore]] = None,
        journal: Optional[Union[str, Path]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        rate: float = 0.0,
        burst: int = 20,
        trust_proxy_headers: bool = False,
        executor_jobs: int = 1,
        concurrency: Optional[int] = None,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        executor_retries: int = 1,
        telemetry: Optional[Telemetry] = None,
        trace_dir: Optional[Union[str, Path]] = None,
    ):
        self.host = host
        self.port = port
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = (Tracer("service", log_dir=trace_dir)
                       if trace_dir is not None else None)
        self.slo = SloTracker()
        if isinstance(store, ResultStore):
            self.store = store
        else:
            self.store = ResultStore(store, telemetry=self.telemetry)
        self.queue = JobQueue(journal, telemetry=self.telemetry)
        self.scheduler = JobScheduler(
            self.queue, self.store,
            executor_jobs=executor_jobs,
            concurrency=concurrency,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            executor_retries=executor_retries,
            telemetry=self.telemetry,
            tracer=self.tracer,
        )
        self.queue_limit = queue_limit
        self.trust_proxy_headers = trust_proxy_headers
        self.limiter = TokenBucket(rate, burst)
        self._server: Optional[asyncio.base_events.Server] = None
        self._task: Optional[asyncio.Task] = None
        self._stopping: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._start_time = time.monotonic()
        # sockets waiting for their next request, closed at wind-down;
        # once the listening socket closes no socket takes another one
        self._idle: set = set()
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Start the process pool, bind the socket and start the
        scheduler (loop context).

        A failure shuts the pool down again and re-raises.
        """
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        try:
            self.scheduler.executor.start()
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port)
        except BaseException:
            await self._wind_down()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        self._task = asyncio.create_task(self.scheduler.run())
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self.begin_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            # non-main thread or platform without signal support; the
            # embedding code owns shutdown instead
            pass
        self._start_time = time.monotonic()

    async def serve(self) -> None:
        """Run until a drain (SIGTERM) or :meth:`shutdown` completes."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        self._close_idle()  # persistent connections end with the drain
        await self._wind_down()
        self._server.close()
        self._closed = True
        self._close_idle()  # sockets opened during the drain
        await self._server.wait_closed()

    async def _wind_down(self) -> None:
        """Drain (again after :meth:`abort`: it frees long-polls), wait
        for the scheduler, close the journal and shut the pool down;
        runs before the socket closes, and after a failed
        :meth:`start`."""
        self.scheduler.drain()
        if self._task is not None:
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        self.queue.close()
        # joins the pool's processes: off the loop, which still answers
        await asyncio.to_thread(self.scheduler.executor.close)

    def _close_idle(self) -> None:
        for writer in list(self._idle):
            writer.close()

    def start_in_thread(self):
        """Run the server on a daemon thread; returns once bound.

        The test-and-embedding path: the caller keeps its thread, talks
        to :attr:`port` over HTTP, and ends with :meth:`shutdown` (or
        :meth:`abort` to simulate a crash).  A failed start raises
        :class:`ServiceError` at once, chained from its cause.
        """
        started: concurrent.futures.Future = concurrent.futures.Future()

        async def main() -> None:
            try:
                await self.start()
            except Exception as exc:
                started.set_exception(exc)
                return
            started.set_result(None)
            await self.serve()

        self._thread = threading.Thread(target=asyncio.run, args=(main(),),
                                        daemon=True)
        self._thread.start()
        try:
            started.result(timeout=self.START_TIMEOUT)
        except concurrent.futures.TimeoutError:
            raise ServiceError(f"service server did not start within "
                               f"{self.START_TIMEOUT}s") from None
        except Exception as exc:
            raise ServiceError(f"service server failed to start: "
                               f"{exc}") from exc
        return self

    def begin_drain(self) -> None:
        """Stop admitting work, finish the running work, then exit."""
        self.scheduler.drain()
        if self._stopping is not None:
            self._stopping.set()

    def shutdown(self) -> None:
        """Graceful stop from any thread (drains first); idempotent."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self.begin_drain)
        except RuntimeError:
            return  # loop already closed: nothing left to stop
        if self._thread is not None:
            self._thread.join(timeout=self.DRAIN_TIMEOUT)

    def abort(self) -> None:
        """Ungraceful stop: kill the loop without draining.

        Simulates a crash (``kill -9``) for recovery tests — journals
        keep whatever was admitted.
        """
        if self._loop is None:
            return

        def _die() -> None:
            if self._task is not None:
                self._task.cancel()
            if self._server is not None:
                self._server.close()
            self._stopping.set()

        try:
            self._loop.call_soon_threadsafe(_die)
        except RuntimeError:
            return  # loop already closed: nothing left to stop
        if self._thread is not None:
            self._thread.join(timeout=30)

    # -- request handling ----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while not self._closed and await self._serve_one(reader, writer):
                pass
        except ConnectionError:
            pass  # the client went away mid-response
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        """Read, route and answer one request; True keeps the socket."""
        self._idle.add(writer)
        idle_timer = self._loop.call_later(KEEPALIVE_IDLE_SECONDS,
                                           writer.close)
        try:
            method, path, query, headers, body, keep_alive = \
                await read_request(reader)
        except BadRequest as exc:
            await respond(writer, 400, {"error": str(exc)})
            return False
        except (asyncio.IncompleteReadError, ConnectionError):
            return False
        except asyncio.CancelledError:
            # loop teardown during drain cancels in-flight
            # handlers; the connection is going away regardless
            return False
        finally:
            idle_timer.cancel()
            self._idle.discard(writer)
        self.telemetry.counter("service.http_requests").inc()
        route_start = time.monotonic()
        try:
            reply = self._route(method, path, query, headers, body,
                                writer)
            if inspect.isawaitable(reply):
                reply = await reply
            status, payload, extra = reply
        except BadRequest as exc:
            status, payload, extra = 400, {"error": str(exc)}, {}
        except Exception as exc:  # never kill the accept loop
            self.telemetry.counter("service.http_errors").inc()
            status, payload, extra = (
                500, {"error": f"internal error: {exc!r}"}, {})
        if "wait=" not in query:  # a long-poll's hold is not route time
            self.slo.observe(time.monotonic() - route_start,
                             error=status >= 500)
        keep_alive = keep_alive and not self._stopping.is_set()
        await respond(writer, status, payload, extra, keep_alive)
        return keep_alive

    def _route(self, method, path, query, headers, body, writer):
        """``(status, payload, extra)``, or a coroutine returning it."""
        if path == "/healthz" and method == "GET":
            return 200, self._healthz(), {}
        if path == "/metrics" and method == "GET":
            return self._metrics(query)
        if path == "/jobs" and method == "POST":
            return self._submit(headers, body, writer)
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": [job.summary()
                                  for job in self.queue.jobs()]}, {}
        if path.startswith("/jobs/") and method == "GET":
            wait = job_wait(query)
            job = self.queue.get(path[len("/jobs/"):])
            if job is None:
                return 404, {"error": "unknown job"}, {}
            if wait and not job.done:
                return self._job_when_done(job, wait)
            return 200, {"job": job.to_dict()}, {}
        if path.startswith("/results/") and method == "GET":
            return self._result(path[len("/results/"):])
        if path in ("/healthz", "/metrics", "/jobs") or \
                path.startswith(("/jobs/", "/results/")):
            return 405, {"error": f"{method} not allowed on {path}"}, {}
        return 404, {"error": f"no route for {path}"}, {}

    async def _job_when_done(self, job: Job, wait: float):
        """``GET /jobs/<id>?wait=S``: the record once the job is
        terminal, S seconds pass or a drain begins."""
        await self.scheduler.wait_done(job.job_id, wait)
        return 200, {"job": job.to_dict()}, {}

    # -- endpoints -----------------------------------------------------

    def _result(self, key: str):
        """``GET /results/<key>``: the store's encoding of the result
        (:meth:`~repro.core.store.ResultStore.encoded_by_key`), built
        once per stored result, spliced into ``{"spec_key", "result"}``.
        """
        encoded = self.store.encoded_by_key(key)
        if encoded is None:
            return 404, {"error": "unknown result key"}, {}
        head = f'{{"spec_key": {json.dumps(key)}, "result": '
        return 200, head.encode("utf-8") + encoded + b"}\n", {}

    def _healthz(self) -> dict:
        return {
            "status": "draining" if self.scheduler.draining else "ok",
            "uptime_s": round(time.monotonic() - self._start_time, 3),
            "pending": self.queue.pending_count,
            "running": self.queue.running_count,
            "queue_limit": self.queue_limit,
            "concurrency": self.scheduler.concurrency,
            "jobs": self.scheduler.executor.jobs,
            "store": repr(self.store),
        }

    def _metrics(self, query: str):
        self.slo.export(self.telemetry, "service.slo")
        snapshot = self.telemetry.snapshot()
        if "format=prometheus" in query:
            text = render_prometheus(snapshot)
            return 200, text, {"content_type": "text/plain; version=0.0.4"}
        snapshot.pop("series", None)
        return 200, snapshot, {}

    def _submit(self, headers, body, writer):
        if self.tracer is None:
            return self._submit_inner(headers, body, writer, None)
        parent = SpanContext.parse(headers.get(TRACEPARENT_HEADER))
        with self.tracer.start_span("service.submit", parent=parent,
                                    cat="route") as span:
            status, payload, extra = self._submit_inner(
                headers, body, writer, span)
            span.set_attr("http_status", status)
            if status >= 400:
                span.status = "error"
            return status, payload, extra

    def _submit_inner(self, headers, body, writer, span):
        client = client_key_of(headers, writer,
                               trust_headers=self.trust_proxy_headers)
        allowed, retry_after = self.limiter.allow(client)
        if not allowed:
            self.telemetry.counter("service.rejected_ratelimit").inc()
            return 429, {"error": "rate limit exceeded"}, {
                "retry_after": max(1, int(retry_after + 0.999))}
        if self.scheduler.draining:
            return 503, {"error": "server is draining"}, {}
        job = parse_job_body(body, client)
        # followers of an in-flight job add no work, so they are always
        # admitted; only jobs that would occupy a queue slot backpressure
        if not self.scheduler.coalesces(job.job_key) and \
                self.queue.pending_count >= self.queue_limit:
            self.telemetry.counter("service.rejected_backpressure").inc()
            return 429, {"error": "job queue is full"}, {"retry_after": 2}
        if span is not None:
            # the scheduler parents the job's e2e span under this
            # submit span; the context must survive a journal replay
            job.trace = span.context.to_traceparent()
            span.set_attr("job_id", job.job_id)
            span.set_attr("client", client)
        job = self.scheduler.submit(job)
        return 202, {"job": job.summary()}, {}
