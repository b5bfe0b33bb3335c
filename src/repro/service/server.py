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
``GET /healthz``      liveness + queue depths
``GET /metrics``      telemetry snapshot (JSON; ``?format=prometheus``
                      for text exposition)
====================  =================================================

Backpressure is bounded-queue admission: when ``queue_limit`` jobs are
already pending the server answers ``429`` with a ``Retry-After`` hint
instead of buffering unboundedly — callers are expected to back off
(the bundled :class:`~repro.service.client.ServiceClient` does).

On ``SIGTERM`` (and ``SIGINT``) the server *drains*: it stops
admitting jobs (``503``), lets the running job finish its cells, and
exits; everything still pending is in the journal and replays on the
next start.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from pathlib import Path
from typing import Optional, Union

from ..core.experiment import ExperimentSpec, spec_from_dict
from ..core.store import ResultStore
from ..errors import ReproError
from ..obs.telemetry import Telemetry, render_prometheus
from ..obs.tracing import TRACEPARENT_HEADER, SpanContext
from .httpcommon import BadRequest, HttpService, job_wait
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
    a vouched-for proxy (a fleet worker hearing from its front end,
    or a server run with ``--behind-proxy``).  Then ``X-Client-Id``
    wins and the first (leftmost) ``X-Forwarded-For`` hop — the
    originating client — is next, so clients sharing the proxy hop
    don't share one bucket.  Untrusted (the default), the socket peer
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
    """Decode a ``POST /jobs`` body into a :class:`Job`.

    Shared by the single-node server and the fleet front-end so both
    validate (and hash, for ring routing) identically.  An optional
    ``"job_id"`` lets a proxy pin the id it already promised its
    client (failover replay depends on this staying stable).
    """
    if not body:
        raise BadRequest("POST /jobs needs a JSON body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise BadRequest("body must be a JSON object")
    specs = payload.get("specs")
    if not isinstance(specs, list) or not specs:
        raise BadRequest("'specs' must be a non-empty list")
    cells = []
    for index, entry in enumerate(specs):
        if not isinstance(entry, dict):
            raise BadRequest(f"spec #{index} is not an object")
        entry = dict(entry)
        key = entry.pop("key", None)
        key = tuple(key) if isinstance(key, list) else (index,)
        _check_spec_types(index, entry)
        try:
            spec = spec_from_dict(entry)
        except (TypeError, ReproError) as exc:
            raise BadRequest(f"spec #{index}: {exc}") from None
        cells.append((key, spec))
    priority = payload.get("priority", 10)
    if not isinstance(priority, int):
        raise BadRequest("'priority' must be an integer")
    try:
        # planning each cell (to key it) refuses a spec the library refuses
        job = Job.create(cells, priority=priority, client=client)
    except ReproError as exc:
        raise BadRequest(f"invalid spec: {exc}") from None
    job_id = payload.get("job_id")
    if job_id is not None:
        if not isinstance(job_id, str) or not job_id or len(job_id) > 64:
            raise BadRequest("'job_id' must be a short string")
        job.job_id = job_id
    return job


class ServiceServer(HttpService):
    """A long-running simulation service bound to one store + journal.

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
        peer is a trusted proxy (the fleet front end sets this for
        its workers; standalone, use ``repro serve --behind-proxy``)
        — the headers are client-controlled and spoofable otherwise.
    executor_jobs, concurrency, max_attempts, backoff_base,
    backoff_cap, executor_retries:
        Forwarded to the :class:`JobScheduler` (``concurrency`` is the
        number of jobs one worker interleaves at once).
    trace_dir, trace_service:
        When ``trace_dir`` is set the server joins distributed traces:
        incoming ``traceparent`` headers parent a ``service.submit``
        span, context flows through scheduler and executor, and spans
        land in a per-process log under ``trace_dir`` (see
        ``docs/observability.md``).  ``None`` (default) disables
        tracing entirely.
    """

    metric_prefix = "service"

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
        concurrency: int = 1,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        executor_retries: int = 1,
        telemetry: Optional[Telemetry] = None,
        trace_dir: Optional[Union[str, Path]] = None,
        trace_service: str = "service",
    ):
        super().__init__(host, port, telemetry, trace_dir, trace_service)
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

    # -- role steps ----------------------------------------------------

    def _background(self):
        return self.scheduler.run()

    def _stop_admitting(self) -> None:
        self.scheduler.drain()

    async def _wind_down(self) -> None:
        self.scheduler.drain()
        if self._task is not None:
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        self.queue.close()

    # -- request handling ----------------------------------------------

    def _route(self, method, path, query, headers, body, writer):
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
        return self._shared_route(method, path)

    async def _job_when_done(self, job: Job, wait: float):
        """``GET /jobs/<id>?wait=S``: the record once the job is
        terminal, S seconds pass or a drain begins."""
        await self.scheduler.wait_done(job.job_id, wait)
        return 200, {"job": job.to_dict()}, {}

    # -- endpoints -----------------------------------------------------

    def _healthz(self) -> dict:
        return {
            "status": "draining" if self.scheduler.draining else "ok",
            "uptime_s": round(time.monotonic() - self._start_time, 3),
            "pending": self.queue.pending_count,
            "running": self.queue.running_count,
            "queue_limit": self.queue_limit,
            "concurrency": self.scheduler.concurrency,
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
        if self.queue.get(job.job_id) is not None:
            raise BadRequest(f"duplicate job id {job.job_id!r}")
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
