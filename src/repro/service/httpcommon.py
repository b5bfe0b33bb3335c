"""The HTTP wire format of ``repro serve`` and its clients.

Request parsing (:func:`read_request`), response framing
(:func:`respond`), the ``GET /jobs/<id>?wait=S`` path and query
(:func:`job_path`, :func:`job_wait`), and the asyncio client
(:func:`fetch`) the load generator uses.  The server itself is
:class:`~repro.service.server.ServiceServer`.

A request the server cannot frame (``Transfer-Encoding``, an
unparsable ``Content-Length``, a line over 64 KiB) is a
:class:`BadRequest`: where the request ends is then unknown, so the
server answers 400 and closes the socket, and stray body bytes are
never read as the next request.  :func:`fetch` stays one request per
socket (``Connection: close``), so a dead peer is a connection error,
never a half-open stream.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Optional, Tuple
from urllib.parse import parse_qs

from ..errors import ServiceError

__all__ = [
    "MAX_BODY_BYTES",
    "STATUS_TEXT",
    "BadRequest",
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
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
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
    text.  Connection-level failures raise :class:`ServiceError`.
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

