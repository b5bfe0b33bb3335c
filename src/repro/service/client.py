"""Thin synchronous client for the simulation service.

Speaks the ``repro serve`` HTTP API with nothing but ``http.client``:

>>> with ServiceClient("http://127.0.0.1:8765") as client:  # doctest: +SKIP
...     job = client.submit([ExperimentSpec(mix="mix5")])
...     job = client.wait(job["job_id"])
...     result = client.result(job["result_keys"][0])

Each thread using a client keeps one persistent HTTP/1.1 connection,
reopened when the server has closed it: that is checked before each
request, a failed GET on a reused connection is sent once more on a
fresh one, and a ``POST /jobs`` is never sent twice.  :meth:`close`
(or leaving the ``with`` block) closes them all.

``submit`` transparently honours ``429`` backpressure: it sleeps the
server's ``Retry-After`` hint and retries until ``busy_timeout`` is
spent, then raises :class:`~repro.errors.ServiceError` with the status
attached.  Every other non-2xx response raises immediately.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import select
import socket
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union
from urllib.parse import urlsplit

from ..core.experiment import ExperimentSpec
from ..core.store import result_from_dict
from ..errors import ServiceError
from .httpcommon import MAX_JOB_WAIT, RETRY_PAUSE, job_path
from .jobs import JobState

__all__ = ["ServiceClient"]

SpecLike = Union[ExperimentSpec, dict]


def _readable(sock: socket.socket) -> bool:
    """Has an idle socket data or EOF waiting (never, on a live one)?"""
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):  # closed, or past select's fd range
        return False


class ServiceClient:
    """Synchronous HTTP client bound to one service URL.

    Parameters
    ----------
    url:
        Base URL, e.g. ``http://127.0.0.1:8765``.
    client_id:
        Sent as ``X-Client-Id``; the server rate-limits per client.
    timeout:
        Socket timeout per request, seconds (a long-poll adds its
        hold).
    busy_timeout:
        Total time :meth:`submit` keeps retrying through ``429``
        responses before giving up (0 = fail on the first 429).
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`.  When set,
        :meth:`submit` opens a ``client.submit`` span and sends its
        context as a ``traceparent`` header, so the server-side trace
        chains all the way back to the caller.
    """

    def __init__(self, url: str, client_id: str = "anon",
                 timeout: float = 30.0, busy_timeout: float = 0.0,
                 tracer=None):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ServiceError(f"unsupported URL scheme {parts.scheme!r}")
        if not parts.hostname:
            raise ServiceError(f"invalid service URL {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 8765
        self.client_id = client_id
        self.timeout = timeout
        self.busy_timeout = busy_timeout
        self.tracer = tracer
        # one connection per thread; a new thread's first call closes
        # those of threads that have ended
        self._connections: Dict[threading.Thread,
                                http.client.HTTPConnection] = {}
        self._connections_lock = threading.Lock()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection; a later call reopens one."""
        with self._connections_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()

    # -- API calls -----------------------------------------------------

    def submit(self, specs: Iterable[SpecLike], priority: int = 10,
               keys: Optional[List[tuple]] = None) -> dict:
        """Submit one job; returns the job summary dict (state etc.).

        ``specs`` may be :class:`ExperimentSpec` instances or plain
        dicts; ``keys`` optionally labels each cell (defaults to its
        index).
        """
        entries = []
        for index, spec in enumerate(specs):
            entry = (dataclasses.asdict(spec)
                     if isinstance(spec, ExperimentSpec) else dict(spec))
            if keys is not None:
                entry["key"] = list(keys[index])
            entries.append(entry)
        body = {"specs": entries, "priority": priority}
        span = None
        extra_headers = None
        if self.tracer is not None:
            span = self.tracer.start_span("client.submit", cat="route",
                                          attrs={"client": self.client_id})
            extra_headers = {"traceparent": span.context.to_traceparent()}
        try:
            deadline = time.monotonic() + self.busy_timeout
            while True:
                status, headers, payload = self._request(
                    "POST", "/jobs", body, extra_headers=extra_headers)
                if status != 429:
                    self._check(status, payload)
                    if span is not None:
                        span.set_attr("job_id",
                                      payload["job"].get("job_id"))
                    return payload["job"]
                retry_after = float(headers.get("retry-after", 1))
                if time.monotonic() + retry_after > deadline:
                    raise ServiceError(
                        f"server busy: {payload.get('error', '429')}",
                        status=429, retry_after=retry_after)
                time.sleep(retry_after)
        except Exception:
            if span is not None:
                span.status = "error"
            raise
        finally:
            if span is not None:
                span.finish()

    def job(self, job_id: str, wait: float = 0.0) -> dict:
        """One job's record; with ``wait`` the server holds the answer
        until the job is terminal or ``wait`` seconds pass (at most
        :data:`~repro.service.httpcommon.MAX_JOB_WAIT`)."""
        status, _headers, payload = self._request(
            "GET", job_path(job_id, wait), timeout=self.timeout + wait)
        self._check(status, payload)
        return payload["job"]

    def jobs(self) -> List[dict]:
        status, _headers, payload = self._request("GET", "/jobs")
        self._check(status, payload)
        return payload["jobs"]

    def wait(self, job_id: str, timeout: float = 600.0) -> dict:
        """Long-poll until the job reaches a terminal state; returns it.

        Raises :class:`ServiceError` on timeout — but *not* on a
        quarantined job: the terminal record (with its error) is
        returned for the caller to inspect.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            hold = min(max(0.0, deadline - asked), MAX_JOB_WAIT)
            job = self.job(job_id, wait=hold)
            if job["state"] in JobState.TERMINAL:
                return job
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    f"job {job_id} still {job['state']} after {timeout}s")
            if now - asked < hold:
                time.sleep(min(RETRY_PAUSE, deadline - now))

    def result(self, key: str, decode: bool = True):
        """Fetch a stored result by spec key.

        ``decode=True`` returns an
        :class:`~repro.core.experiment.ExperimentResult`; ``False``
        returns the raw record dict (useful for byte-level comparisons).
        """
        status, _headers, payload = self._request(
            "GET", f"/results/{key}")
        self._check(status, payload)
        if decode:
            return result_from_dict(payload["result"])
        return payload

    def healthz(self) -> dict:
        status, _headers, payload = self._request("GET", "/healthz")
        self._check(status, payload)
        return payload

    def metrics(self) -> dict:
        status, _headers, payload = self._request("GET", "/metrics")
        self._check(status, payload)
        return payload

    def metrics_text(self) -> str:
        """The Prometheus text exposition of ``/metrics``."""
        status, _headers, payload = self._request(
            "GET", "/metrics?format=prometheus", raw=True)
        if status != 200:
            raise ServiceError(f"metrics failed: HTTP {status}",
                               status=status)
        return payload

    # -- plumbing ------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, dropped first if the server has
        closed it (an idle socket turns readable at the server's FIN)."""
        thread = threading.current_thread()
        connection = self._connections.get(thread)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            with self._connections_lock:
                for ended in [other for other in self._connections
                              if not other.is_alive()]:
                    self._connections.pop(ended).close()
                self._connections[thread] = connection
        elif connection.sock is not None and _readable(connection.sock):
            connection.close()
        return connection

    def _request(self, method: str, path: str, body: Optional[dict] = None,
                 raw: bool = False,
                 extra_headers: Optional[dict] = None,
                 timeout: Optional[float] = None,
                 ) -> Tuple[int, dict, object]:
        headers = {"X-Client-Id": self.client_id}
        if extra_headers:
            headers.update(extra_headers)
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        timeout = self.timeout if timeout is None else timeout
        while True:
            connection = self._connection()
            reused = connection.sock is not None
            if connection.timeout != timeout:
                connection.timeout = timeout
                if reused:
                    connection.sock.settimeout(timeout)
            try:
                connection.request(method, path, body=data, headers=headers)
                response = connection.getresponse()
                text = response.read().decode("utf-8")
                break
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                # a reused socket the server closed under us: a GET is
                # safe to send again, a submission may have been admitted
                if reused and method == "GET" and \
                        not isinstance(exc, socket.timeout):
                    continue
                raise ServiceError(
                    f"cannot reach service at "
                    f"http://{self.host}:{self.port}: {exc}") from None
        response_headers = {k.lower(): v
                            for k, v in response.getheaders()}
        if raw:
            return response.status, response_headers, text
        try:
            payload = json.loads(text) if text else {}
        except json.JSONDecodeError:
            payload = {"error": text.strip()}
        return response.status, response_headers, payload

    @staticmethod
    def _check(status: int, payload) -> None:
        if 200 <= status < 300:
            return
        message = (payload.get("error", f"HTTP {status}")
                   if isinstance(payload, dict) else f"HTTP {status}")
        raise ServiceError(f"service error: {message}", status=status)
