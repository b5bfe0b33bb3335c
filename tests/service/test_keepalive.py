"""Persistent connections, long-polls and request framing.

The server keeps an HTTP/1.1 socket open across requests; the client
holds one connection per thread and reopens it when the server closed
it; ``GET /jobs/<id>?wait=S`` holds its answer until the job is
terminal.  These pin each of those and the edges where they end:
``Connection: close``, HTTP/1.0, a request the server cannot frame,
drain, shutdown and restart.
"""

import http.client
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bench.loadgen import LoadgenConfig, run_loadgen
from repro.errors import ServiceError
from repro.service import ServiceClient, ServiceServer

from .conftest import tiny_spec

SRC = Path(__file__).resolve().parents[2] / "src"


class _Raw:
    """A client socket that reads responses off a buffered stream."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.settimeout(10)
        self.stream = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self):
        """``(status, headers, body)`` of the next response."""
        status_line = self.stream.readline()
        if not status_line:
            raise ConnectionError("closed before a response")
        headers = {}
        while True:
            line = self.stream.readline().decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.stream.read(int(headers["content-length"]))
        return int(status_line.split()[1]), headers, body

    def closed(self) -> bool:
        """Does the server close the socket within a couple of seconds?"""
        return _closed(self.sock)

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


def _closed(sock, timeout=2.0) -> bool:
    """Does the peer close ``sock`` within ``timeout`` seconds?"""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except ConnectionError:
        return True
    except socket.timeout:
        return False


@pytest.fixture
def raw(server):
    client = _Raw(server.port)
    yield client
    client.close()


class TestServerConnections:
    def test_two_requests_on_one_socket(self, raw):
        for _ in range(2):
            raw.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            status, headers, _body = raw.response()
            assert status == 200
            assert headers["connection"] == "keep-alive"

    def test_pipelined_requests_are_answered_in_order(self, raw):
        raw.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                 b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
        assert raw.response()[0] == 200
        assert raw.response()[0] == 404

    @pytest.mark.parametrize("request_head", [
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http-1.0"])
    def test_close_requests_still_close(self, raw, request_head):
        raw.send(request_head)
        status, headers, _body = raw.response()
        assert status == 200
        assert headers["connection"] == "close"
        assert raw.closed()

    def test_http_1_0_keep_alive_is_honoured(self, raw):
        for _ in range(2):
            raw.send(b"GET /healthz HTTP/1.0\r\n"
                     b"Connection: keep-alive\r\n\r\n")
            assert raw.response()[0] == 200

    @pytest.mark.parametrize("request_head", [
        b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n",
        b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 2x\r\n\r\n",
        b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n",
    ], ids=["transfer-encoding", "garbled-length", "negative-length",
            "overlong-header"])
    def test_unframeable_request_is_400_and_closes(self, server, raw,
                                                   request_head):
        # the trailing bytes look like a request: they must never be
        # parsed as one
        raw.send(request_head + b"5\r\nhello\r\n0\r\n\r\n"
                 b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        status, headers, _body = raw.response()
        assert status == 400
        assert headers["connection"] == "close"
        assert raw.closed()
        counters = server.telemetry.snapshot()["counters"]
        assert "service.http_requests" not in counters

    def test_a_route_error_keeps_the_socket(self, raw):
        raw.send(b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                 b"Content-Length: 2\r\n\r\n{]")
        assert raw.response()[0] == 400
        raw.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert raw.response()[0] == 200

    def test_shutdown_closes_an_idle_keep_alive_socket(self, make_server):
        server = make_server()
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        connection.request("GET", "/healthz")
        assert connection.getresponse().read()
        start = time.monotonic()
        server.shutdown()
        assert time.monotonic() - start < 2.0
        assert not server._thread.is_alive()
        assert _closed(connection.sock)
        connection.close()

    def test_sigterm_drains_with_an_idle_keep_alive_client(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stderr=subprocess.PIPE, text=True)
        try:
            match = re.search(r"http://[\d.]+:(\d+)",
                              process.stderr.readline())
            assert match, "repro serve did not announce its port"
            connection = http.client.HTTPConnection(
                "127.0.0.1", int(match.group(1)), timeout=10)
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
            start = time.monotonic()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=10) == 0
            assert time.monotonic() - start < 2.0
            connection.close()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stderr.close()


def _record_peers(server):
    """Collect ``(path, client port)`` of every request ``server``
    routes."""
    peers = []
    route = server._route

    def recording(method, path, query, headers, body, writer):
        peers.append((path, writer.get_extra_info("peername")[1]))
        return route(method, path, query, headers, body, writer)

    server._route = recording
    return peers


class TestClientConnection:
    def test_submit_job_and_result_share_one_connection(self, server):
        peers = _record_peers(server)
        with ServiceClient(f"http://127.0.0.1:{server.port}") as client:
            job = client.submit([tiny_spec()])
            job = client.wait(job["job_id"], timeout=60)
            assert job["state"] == "done"
            client.job(job["job_id"])
            client.result(job["result_keys"][0])
        assert len(peers) >= 4
        assert len({port for _path, port in peers}) == 1

    def test_close_ends_the_connection_and_a_call_reopens_it(self, server):
        peers = _record_peers(server)
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        client.healthz()
        client.close()
        client.healthz()
        client.close()
        assert len({port for _path, port in peers}) == 2

    def test_threads_sharing_a_client_do_not_interleave(self, server):
        peers = _record_peers(server)
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        job_ids = [client.submit([tiny_spec(seed=seed)])["job_id"]
                   for seed in range(1, 5)]  # more threads than cores
        errors = []

        def hammer(job_id):
            try:
                for _ in range(40):
                    assert client.job(job_id)["job_id"] == job_id
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(job_id,))
                   for job_id in job_ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        # each thread polled its own job: one connection per thread,
        # none shared between them
        ports = [{port for path, port in peers if path == f"/jobs/{job_id}"}
                 for job_id in job_ids]
        assert all(len(used) == 1 for used in ports)
        assert len(set.union(*ports)) == len(job_ids)

    def test_reconnects_after_a_restart_on_the_same_port(self, make_server):
        first = make_server()
        port = first.port
        client = ServiceClient(f"http://127.0.0.1:{port}")
        assert client.healthz()["status"] == "ok"
        first.shutdown()
        second = make_server(port=port)
        assert client.healthz()["status"] == "ok"  # a GET reconnects
        job = client.submit([tiny_spec()])
        assert [j.job_id for j in second.queue.jobs()] == [job["job_id"]]
        client.close()

    def test_long_poll_waits_without_polling(self, server):
        peers = _record_peers(server)
        with ServiceClient(f"http://127.0.0.1:{server.port}") as client:
            job = client.submit([tiny_spec(seed=7)])
            assert client.wait(job["job_id"], timeout=60)["state"] == "done"
        # the submit and one held poll, which the job's end answers
        assert [path for path, _port in peers] == [
            "/jobs", f"/jobs/{job['job_id']}"]


class _OneShotServer:
    """Answers the first request of each connection, then reads the
    second one and hangs up without answering: a keep-alive peer that
    dies between the client's check and its request."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.requests = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                sock, _peer = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._connection, args=(sock,),
                             daemon=True).start()

    def _connection(self, sock):
        with sock:
            for answer in (True, False):
                head = b""
                while b"\r\n\r\n" not in head:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return
                    head += chunk
                self.requests.append(head.split(b" ", 2)[:2])
                if not answer:
                    return
                body = b'{"status": "ok", "job": {"job_id": "j"}}\n'
                sock.sendall(
                    b"HTTP/1.1 202 Accepted\r\nConnection: keep-alive\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body))

    def close(self):
        self.listener.close()


class TestClientRetry:
    @pytest.fixture
    def peer(self):
        peer = _OneShotServer()
        yield peer
        peer.close()

    def test_get_is_sent_again_on_a_fresh_connection(self, peer):
        client = ServiceClient(f"http://127.0.0.1:{peer.port}")
        client.healthz()
        assert client.healthz()["status"] == "ok"
        assert peer.requests == [[b"GET", b"/healthz"]] * 3
        client.close()

    def test_submission_is_never_sent_twice(self, peer):
        client = ServiceClient(f"http://127.0.0.1:{peer.port}")
        client.healthz()
        with pytest.raises(ServiceError):
            client.submit([tiny_spec()])
        assert peer.requests == [[b"GET", b"/healthz"], [b"POST", b"/jobs"]]
        client.close()


class TestLongPoll:
    def _get(self, server, path):
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    @pytest.mark.parametrize("wait", ["abc", "-1", "nan", "inf", ""])
    def test_malformed_wait_is_400(self, server, wait):
        status, body = self._get(server, f"/jobs/nope?wait={wait}")
        assert status == 400 and b"wait" in body

    def test_unknown_job_is_404_at_once(self, server):
        start = time.monotonic()
        assert self._get(server, "/jobs/nope?wait=5")[0] == 404
        assert time.monotonic() - start < 1.0

    def test_wait_holds_until_done(self, make_server):
        server = make_server()
        server.scheduler.paused = True
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        job_id = client.submit([tiny_spec(seed=3)])["job_id"]
        start = time.monotonic()
        assert client.job(job_id, wait=0.3)["state"] == "submitted"
        assert time.monotonic() - start >= 0.3

        def resume():
            time.sleep(0.2)
            server.scheduler.paused = False
            server._loop.call_soon_threadsafe(server.scheduler._wake)

        resumer = threading.Thread(target=resume)
        resumer.start()
        assert client.job(job_id, wait=20)["state"] == "done"
        resumer.join(timeout=10)
        assert not resumer.is_alive()
        client.close()

    def test_drain_answers_a_held_poll_at_once(self, make_server):
        server = make_server()
        server.scheduler.paused = True
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        job_id = client.submit([tiny_spec(seed=4)])["job_id"]
        stopper = threading.Timer(0.3, server.shutdown)
        stopper.start()
        start = time.monotonic()
        assert client.job(job_id, wait=20)["state"] == "submitted"
        assert time.monotonic() - start < 5.0
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        client.close()


def test_warm_posts_on_one_connection_do_not_stall(server):
    """A request split across segments would wait out the peer's
    delayed ACK (40 ms on Linux) every time: the median and the tail
    stay far below that.  (On an idle 2-core host p99 reads about 1 ms;
    the bound leaves room for a busy test host.)"""
    with ServiceClient(f"http://127.0.0.1:{server.port}") as client:
        job = client.submit([tiny_spec()])
        client.wait(job["job_id"], timeout=60)
        times = []
        for _ in range(1000):
            start = time.perf_counter()
            client.submit([tiny_spec()])
            times.append(time.perf_counter() - start)
    times.sort()
    assert times[499] < 0.005
    assert times[989] < 0.020


def test_loadgen_cold_latency_is_not_rounded_to_a_poll(tmp_path):
    """Submit-to-result time exceeds the server's own submit-to-done
    time by the HTTP round trips only, well under the 20 ms poll
    interval a job once waited out.  Cell sizes vary so that the old
    polls' phase against the job's end averages out, and the store is
    on disk so results are encoded inside the job, not at the fetch."""
    server = ServiceServer(port=0, store=tmp_path / "store")
    server.start_in_thread()

    def served():
        histogram = server.telemetry.snapshot()[
            "histograms"]["service.job_seconds"]
        return histogram["total"], histogram["observations"]

    config = dict(url=f"http://{server.host}:{server.port}", rate=50.0,
                  duration=0.1, warm_fraction=0.0, max_inflight=1,
                  prime=False, timeout=60.0, seed=8)
    latencies = []
    try:
        # a first job warms the code paths; only the later ones count
        run_loadgen(LoadgenConfig(**config, refs=250))
        before = served()
        for refs in range(300, 800, 60):
            report = run_loadgen(LoadgenConfig(**config, refs=refs))
            assert report.completed == report.submitted
            latencies += report.cold_latencies
        total, count = (now - then for now, then in zip(served(), before))
    finally:
        server.shutdown()
    assert count == len(latencies) >= 24
    gap = statistics.fmean(latencies) - total / count
    assert 0 < gap < 0.008
