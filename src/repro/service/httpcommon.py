"""The HTTP service shell under ``repro serve`` and ``repro fleet``.

:class:`HttpService` is the base of the single-node
:class:`~repro.service.server.ServiceServer` and the fleet front end
:class:`~repro.service.fleet.FleetServer`.  It owns their lifecycle
(bind, one background task, SIGTERM/SIGINT drain, ``start_in_thread``,
``shutdown``, ``abort``), the request loop (400 on malformed requests,
500 on handler crashes, the ``<prefix>.http_requests`` counter and the
SLO observation) and the routes both answer alike: ``GET
/results/<key>`` and the 405/404 fallbacks.  Each subclass brings its
route table and its start, drain and teardown steps.

The wire format is here too, so the two stay byte-compatible: request
parsing (:func:`read_request`), response framing (:func:`respond`),
and the asyncio client (:func:`fetch`) the front end and the load
generator use to talk to workers.

Connections are persistent HTTP/1.1: a server socket answers request
after request until the client sends ``Connection: close`` (or speaks
HTTP/1.0 without ``keep-alive``), :data:`KEEPALIVE_IDLE_SECONDS` pass
without a request, or the service drains, shuts down or aborts.  A
request the server cannot frame (``Transfer-Encoding``, an unparsable
``Content-Length``, a line over 64 KiB) is a 400 and closes the socket, so stray body bytes
are never read as the next request.  Idle sockets are closed at
wind-down: ``asyncio.Server.wait_closed`` waits for every open
connection on Python 3.12.1 and later.  :func:`fetch` stays one
request per socket (``Connection: close``), so a dead peer is a
connection error, never a half-open stream; the fleet's dead-worker
detection relies on that.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import inspect
import json
import math
import signal
import threading
import time
from pathlib import Path
from typing import Optional, Tuple, Union
from urllib.parse import parse_qs

from ..errors import ServiceError
from ..obs.slo import SloTracker
from ..obs.telemetry import Telemetry
from ..obs.tracing import Tracer

__all__ = [
    "MAX_BODY_BYTES",
    "STATUS_TEXT",
    "BadRequest",
    "HttpService",
    "KEEPALIVE_IDLE_SECONDS",
    "MAX_JOB_WAIT",
    "RETRY_PAUSE",
    "job_path",
    "job_wait",
    "read_request",
    "respond",
    "fetch",
]

MAX_BODY_BYTES = 8 * 1024 * 1024
KEEPALIVE_IDLE_SECONDS = 15.0
"""Seconds a persistent connection may sit between requests."""
MAX_JOB_WAIT = 30.0
"""Cap on ``S`` in ``GET /jobs/<id>?wait=S``, seconds."""
RETRY_PAUSE = 0.1
"""Seconds a long-polling client pauses before asking again when a
poll failed or came back before its hold with the job still running
(a draining server), so it never spins on either."""
STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable",
}


class BadRequest(ServiceError):
    """Maps to a 400 response."""


async def read_request(reader: asyncio.StreamReader) -> Tuple[
        str, str, str, dict, Optional[bytes], bool]:
    """Parse one request: ``(method, path, query, headers, body,
    keep_alive)``.

    Raises :class:`BadRequest` on malformed input and
    ``asyncio.IncompleteReadError`` on a closed/empty connection.
    Header names are lower-cased; the body is read iff a
    ``Content-Length`` is present (bounded by :data:`MAX_BODY_BYTES`).
    A ``Transfer-Encoding``, an unparsable ``Content-Length`` or a line
    over the stream's limit is a :class:`BadRequest`: where the request
    ends is then unknown, so the connection cannot carry another one.  ``keep_alive`` is what
    the client asked for: HTTP/1.1 unless ``Connection: close``,
    HTTP/1.0 only with ``Connection: keep-alive``.
    """
    request_line = await _read_line(reader)
    if not request_line:
        raise asyncio.IncompleteReadError(b"", None)
    parts = request_line.split()
    if len(parts) != 3:
        raise BadRequest(f"malformed request line {request_line!r}")
    method, target, version = parts
    path, _, query = target.partition("?")
    headers = {}
    while True:
        line = await _read_line(reader)
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise BadRequest("Transfer-Encoding is not supported; "
                         "send a Content-Length")
    body = None
    length = headers.get("content-length")
    if length is not None:
        if not length.isdigit():
            raise BadRequest("invalid Content-Length")
        length = int(length)
        if length > MAX_BODY_BYTES:
            raise BadRequest("request body too large")
        body = await reader.readexactly(length)
    tokens = {token.strip().lower()
              for token in headers.get("connection", "").split(",")}
    if version.upper() == "HTTP/1.1":
        keep_alive = "close" not in tokens
    else:
        keep_alive = "keep-alive" in tokens
    return method.upper(), path, query, headers, body, keep_alive


async def _read_line(reader: asyncio.StreamReader) -> str:
    try:
        line = await reader.readline()
    except ValueError:  # longer than the stream's limit (64 KiB)
        raise BadRequest("request line or header too long") from None
    return line.decode("latin-1").strip()


def job_path(job_id: str, wait: float) -> str:
    """The path of ``GET /jobs/<id>``, long-polled when ``wait`` > 0."""
    if wait > 0:
        return f"/jobs/{job_id}?wait={wait:.3f}"
    return f"/jobs/{job_id}"


def job_wait(query: str) -> float:
    """Seconds ``GET /jobs/<id>?wait=S`` may hold its answer.

    0 when ``wait`` is absent; capped at :data:`MAX_JOB_WAIT`.  A
    value that is not a finite number >= 0 is a :class:`BadRequest`.
    """
    values = parse_qs(query, keep_blank_values=True).get("wait")
    if values is None:
        return 0.0
    try:
        wait = float(values[-1])
    except ValueError:
        wait = -1.0
    if not math.isfinite(wait) or wait < 0:
        raise BadRequest(f"wait must be a number of seconds >= 0, "
                         f"got {values[-1]!r}")
    return min(wait, MAX_JOB_WAIT)


async def respond(writer: asyncio.StreamWriter, status: int, payload,
                  extra: Optional[dict] = None,
                  keep_alive: bool = False) -> None:
    """Write one framed response and drain.

    ``payload`` may be ``bytes`` (sent as they are, e.g. a stored
    result's encoding), a ``str`` (sent as-is, e.g. Prometheus text) or
    any JSON-serializable object, sent as one line of JSON with the
    default ``", "``/``": "`` separators.  ``extra`` carries
    ``content_type`` and ``retry_after`` overrides; ``keep_alive``
    tells the client whether the socket stays open.
    """
    extra = extra or {}
    content_type = extra.get("content_type", "application/json")
    if isinstance(payload, bytes):
        body = payload
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = (json.dumps(payload) + "\n").encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: keep-alive" if keep_alive else "Connection: close",
    ]
    if "retry_after" in extra:
        head.append(f"Retry-After: {extra['retry_after']}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                 + body)
    await writer.drain()


async def fetch(host: str, port: int, method: str, path: str,
                body: Optional[dict] = None,
                headers: Optional[dict] = None,
                timeout: float = 10.0) -> Tuple[int, dict, object]:
    """One asyncio HTTP round-trip: ``(status, headers, payload)``.

    The JSON-decoded body is returned when it parses, else the raw
    text.  Connection-level failures raise :class:`ServiceError` — the
    caller decides whether that means "worker is dead".
    """
    data = b""
    if body is not None:
        data = json.dumps(body).encode("utf-8")
    head = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}:{port}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    if body is not None:
        head.append("Content-Type: application/json")
    head.append(f"Content-Length: {len(data)}")

    async def _roundtrip() -> Tuple[int, dict, object]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(("\r\n".join(head) + "\r\n\r\n")
                         .encode("latin-1") + data)
            await writer.drain()
            status_line = (await reader.readline()).decode("latin-1")
            parts = status_line.split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ServiceError(
                    f"malformed status line {status_line!r} "
                    f"from {host}:{port}")
            status = int(parts[1])
            response_headers = {}
            while True:
                line = (await reader.readline()).decode("latin-1").strip()
                if not line:
                    break
                name, _, value = line.partition(":")
                response_headers[name.strip().lower()] = value.strip()
            raw = await reader.read()
            length = response_headers.get("content-length")
            if length is not None and length.isdigit():
                raw = raw[:int(length)]
            text = raw.decode("utf-8", errors="replace")
            try:
                payload = json.loads(text) if text else {}
            except json.JSONDecodeError:
                payload = text
            return status, response_headers, payload
        finally:
            try:
                writer.close()
            except Exception:
                pass

    try:
        return await asyncio.wait_for(_roundtrip(), timeout=timeout)
    except (OSError, asyncio.IncompleteReadError) as exc:
        raise ServiceError(
            f"cannot reach http://{host}:{port}{path}: {exc}") from None
    except asyncio.TimeoutError:
        raise ServiceError(
            f"timeout after {timeout}s on "
            f"http://{host}:{port}{path}") from None


class HttpService:
    """Lifecycle, request loop and shared routes of one HTTP server.

    Subclasses set :attr:`metric_prefix` (and the timeouts), build
    their state after ``super().__init__``, and supply ``_route`` (a
    plain or a coroutine function returning ``(status, payload,
    extra)``) plus the role steps below.
    """

    metric_prefix: str
    """Prefix of the request counters (``service`` or ``fleet``)."""
    START_TIMEOUT = 10.0
    """Seconds :meth:`start_in_thread` waits for the socket."""
    DRAIN_TIMEOUT = 30.0
    """Seconds :meth:`shutdown` waits for the drain to finish."""

    def __init__(self, host: str, port: int,
                 telemetry: Optional[Telemetry],
                 trace_dir: Optional[Union[str, Path]],
                 trace_service: str):
        self.host = host
        self.port = port
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = (Tracer(trace_service, log_dir=trace_dir)
                       if trace_dir is not None else None)
        self.slo = SloTracker()
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

    # -- role steps ----------------------------------------------------

    async def _before_bind(self) -> None:
        """Work that must be done before the socket accepts."""

    def _background(self):
        """The coroutine run as the server's one background task."""
        raise NotImplementedError

    def _stop_admitting(self) -> None:
        """Refuse new work from now on (loop context)."""
        raise NotImplementedError

    async def _wind_down(self) -> None:
        """Finish or stop the background work and close what the role
        owns; runs before the socket closes, and undoes
        :meth:`_before_bind` when :meth:`start` fails."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the background task (loop context).

        A failure undoes the role's start steps and re-raises.
        """
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        try:
            await self._before_bind()
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port)
        except BaseException:
            await self._wind_down()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        self._task = asyncio.create_task(self._background())
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
        self._stop_admitting()  # again after abort(): frees long-polls
        self._close_idle()  # persistent connections end with the drain
        await self._wind_down()
        self._server.close()
        self._closed = True
        self._close_idle()  # sockets opened during the drain
        await self._server.wait_closed()

    def _close_idle(self) -> None:
        for writer in list(self._idle):
            writer.close()

    def serve_forever(self) -> None:
        """Blocking entry point (``repro serve``/``repro fleet``)."""
        asyncio.run(self.serve())

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
            raise ServiceError(f"{self.metric_prefix} server did not "
                               f"start within {self.START_TIMEOUT}s") from None
        except Exception as exc:
            raise ServiceError(f"{self.metric_prefix} server failed to "
                               f"start: {exc}") from exc
        return self

    def begin_drain(self) -> None:
        """Stop admitting work, finish the running work, then exit."""
        self._stop_admitting()
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
        self.telemetry.counter(
            f"{self.metric_prefix}.http_requests").inc()
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
            self.telemetry.counter(
                f"{self.metric_prefix}.http_errors").inc()
            status, payload, extra = (
                500, {"error": f"internal error: {exc!r}"}, {})
        if "wait=" not in query:  # a long-poll's hold is not route time
            self.slo.observe(time.monotonic() - route_start,
                             error=status >= 500)
        keep_alive = keep_alive and not self._stopping.is_set()
        await respond(writer, status, payload, extra, keep_alive)
        return keep_alive

    def _shared_route(self, method: str, path: str):
        """``GET /results/<key>`` and the 405/404 fallbacks.

        A result's body splices the store's encoding of it
        (:meth:`~repro.core.store.ResultStore.encoded_by_key`), built
        once per stored result, into ``{"spec_key", "result"}``.
        """
        if path.startswith("/results/") and method == "GET":
            key = path[len("/results/"):]
            encoded = self.store.encoded_by_key(key)
            if encoded is None:
                return 404, {"error": "unknown result key"}, {}
            head = f'{{"spec_key": {json.dumps(key)}, "result": '
            return 200, head.encode("utf-8") + encoded + b"}\n", {}
        if path in ("/healthz", "/metrics", "/jobs") or \
                path.startswith(("/jobs/", "/results/")):
            return 405, {"error": f"{method} not allowed on {path}"}, {}
        return 404, {"error": f"no route for {path}"}, {}
