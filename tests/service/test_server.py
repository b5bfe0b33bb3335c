"""HTTP-layer tests: validation, backpressure, rate limiting, drain."""

import http.client
import json
import socket
import time

import pytest

from repro.errors import ServiceError
from repro.service import FleetServer, ServiceClient, ServiceServer

from .conftest import TINY, tiny_spec


def raw_request(port, method, path, body=None, headers=None):
    """Bypass ServiceClient so malformed payloads reach the wire."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        text = response.read().decode("utf-8")
        return response.status, dict(
            (k.lower(), v) for k, v in response.getheaders()), text
    finally:
        connection.close()


class TestValidation:
    def test_malformed_json_body_is_400(self, server):
        status, _h, text = raw_request(server.port, "POST", "/jobs",
                                       body=b"{not json",
                                       headers={"Content-Length": "9"})
        assert status == 400
        assert "invalid JSON" in text

    def test_empty_body_is_400(self, server):
        status, _h, text = raw_request(server.port, "POST", "/jobs")
        assert status == 400
        assert "JSON body" in text

    def test_missing_specs_is_400(self, server):
        body = json.dumps({"priority": 1}).encode()
        status, _h, text = raw_request(server.port, "POST", "/jobs",
                                       body=body)
        assert status == 400
        assert "specs" in text

    @pytest.mark.parametrize("fields, message", [
        ({"bogus_field": 1}, "bogus_field"),
        ({"sharing": "shared-5"}, "shared-5"),
        ({"engine_mode": "bogus"}, "bogus"),
        ({"measured_refs": -5}, "measured_refs must be positive"),
        ({"measured_refs": "100"}, "spec #0: field 'measured_refs'"),
        ({"seed": "x"}, "spec #0: field 'seed'"),
        ({"num_cores": "x"}, "spec #0: field 'num_cores'"),
        ({"scale": "big"}, "spec #0: field 'scale'"),
        ({"measured_refs": 1.5}, "spec #0: field 'measured_refs'"),
        ({"measured_refs": True}, "spec #0: field 'measured_refs'"),
        ({"l2_vm_quota": 1}, "spec #0: spec field 'l2_vm_quota'"),
        ({"qos_policy": "ucp", "l2_vm_quota": True},
         "use qos_policy='static-equal'"),
        ({"sched_policy": "contention", "rebind": "random"},
         "both migrate threads"),
        ({"mix": "nope"}, "unknown mix"),
        ({"qos_policy": "bogus"}, "unknown QoS policy"),
        ({"policy": "bogus"}, "unknown scheduling policy"),
        ({"mix": "mix1", "scenario": "diurnal-web"},
         "the scenario's own roster mix"),
        ({"l2_replacement": "bogus"}, "unknown replacement policy"),
        ({"rebind": "bogus"}, "unknown rebinder"),
        ({"core_speeds": "garbage"}, "core-speed spec"),
        ({"mix": "iso-tpch", "vm_schedule": "x,y"},
         "vm_schedule has 2 entries for 1 VMs"),
        ({"l2_asym": "zz"}, "L2-associativity spec"),
        ({"num_cores": 3}, "square mesh"),
        ({"scale": -1.0}, "scale factor must be positive"),
        ({"slots_per_core": 0}, "slots_per_core must be positive"),
        ({"dir_cache_entries": 7}, "not divisible"),
        ({"rebind": "random", "rebind_interval": 0},
         "rebind_interval must be positive"),
        ({"qos_policy": "target-slowdown", "qos_target": 0.0},
         "needs a positive qos_target"),
        ({"start_stagger": -100}, "use vm_schedule="),
        ({"scale": float("inf")}, "scale factor must be positive"),
        ({"engine_mode": "batched", "slots_per_core": 2},
         "engine BatchedEngine does not provide run-queue requeue"),
        ({"start_stagger": 20000},
         "field 'start_stagger' has been retired (got 20000); use "
         "vm_schedule="),
        ({"l2_vm_quota": True},
         "field 'l2_vm_quota' has been retired (got True); use "
         "qos_policy='static-equal'"),
    ], ids=["unknown-field", "bad-sharing", "bad-engine", "negative-refs",
            "string-refs", "string-seed", "string-cores", "string-scale",
            "float-refs", "bool-refs", "int-flag", "qos-and-vm-quota",
            "sched-and-rebind", "unknown-mix", "unknown-qos-policy",
            "unknown-placement", "scenario-off-its-mix",
            "unknown-replacement", "unknown-rebinder", "bad-core-speeds",
            "vm-schedule-length", "bad-l2-asym", "non-square-cores",
            "negative-scale", "zero-slots", "bad-dir-cache-size",
            "zero-rebind-interval", "target-slowdown-without-target",
            "negative-stagger", "infinite-scale", "batched-over-commit",
            "retired-stagger", "retired-quota"])
    def test_unknown_spec_field_is_400(self, server, fields, message):
        # a spec the library refuses is the client's error, not a 500
        body = json.dumps({"specs": [{"mix": "mix5", **fields}]}).encode()
        status, _h, text = raw_request(server.port, "POST", "/jobs",
                                       body=body)
        assert status == 400
        assert message in text

    def test_retired_spec_fields_at_old_defaults_admitted(self, server):
        # a client written before the fields retired still submits
        spec = {"mix": "iso-tpch", "sharing": "private", "policy": "rr",
                "l2_vm_quota": False, "start_stagger": 0, **TINY}
        body = json.dumps({"specs": [spec]}).encode()
        status, _h, text = raw_request(server.port, "POST", "/jobs",
                                       body=body)
        assert status == 202, text
        assert json.loads(text)["job"]["job_id"]

    def test_non_integer_priority_is_400(self, server):
        body = json.dumps({"specs": [{"mix": "mix5"}],
                           "priority": "high"}).encode()
        status, _h, text = raw_request(server.port, "POST", "/jobs",
                                       body=body)
        assert status == 400
        assert "priority" in text

    def test_unknown_route_is_404(self, server):
        status, _h, _text = raw_request(server.port, "GET", "/nope")
        assert status == 404

    def test_unknown_job_is_404(self, server):
        status, _h, _text = raw_request(server.port, "GET", "/jobs/ghost")
        assert status == 404

    def test_unknown_result_key_is_404(self, server):
        status, _h, _text = raw_request(server.port, "GET",
                                        "/results/deadbeef")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        status, _h, _text = raw_request(server.port, "DELETE", "/jobs")
        assert status == 405
        status, _h, _text = raw_request(server.port, "POST", "/healthz")
        assert status == 405

    @pytest.mark.parametrize("wait", ["abc", "-1", "nan", ""])
    def test_malformed_wait_is_400(self, server, wait):
        status, _h, text = raw_request(server.port, "GET",
                                       f"/jobs/ghost?wait={wait}")
        assert status == 400
        assert "wait" in text

    def test_wait_answers_with_the_terminal_job(self, server):
        body = json.dumps({"specs": [dict(TINY, mix="iso-tpch",
                                          seed=11)]}).encode()
        status, _h, text = raw_request(server.port, "POST", "/jobs",
                                       body=body)
        assert status == 202
        job_id = json.loads(text)["job"]["job_id"]
        status, _h, text = raw_request(server.port, "GET",
                                       f"/jobs/{job_id}?wait=30")
        assert status == 200
        assert json.loads(text)["job"]["state"] == "done"

    def test_transfer_encoding_is_400(self, server):
        status, headers, _text = raw_request(
            server.port, "POST", "/jobs", body=b"",
            headers={"Transfer-Encoding": "chunked"})
        assert status == 400
        assert headers["connection"] == "close"

    def test_protocol_errors_are_counted(self, server):
        name = f"{server.metric_prefix}.http_requests"

        def requests():
            return server.telemetry.snapshot()["counters"].get(name, 0)

        before = requests()
        raw_request(server.port, "POST", "/jobs", body=b"{not json",
                    headers={"Content-Length": "9"})
        raw_request(server.port, "GET", "/nope")
        raw_request(server.port, "DELETE", "/jobs")
        assert requests() - before == 3


class TestFleetValidation(TestValidation):
    """The same protocol cases against a one-worker fleet front end."""

    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fleet")
        fleet = FleetServer(workers=1, store=root / "store",
                            journal_dir=root / "journals").start_in_thread()
        yield fleet
        fleet.shutdown()


def test_service_starts_past_a_retired_spec_field_in_its_journal(
        make_server, tmp_path):
    from repro.service.jobs import Job, JobQueue

    journal = tmp_path / "journal.jsonl"
    queue = JobQueue(journal)
    queue.submit(Job.create([((0,), tiny_spec())]))
    queue.close()
    record = json.loads(journal.read_text())
    record["job"]["cells"][0]["spec"]["start_stagger"] = 500
    journal.write_text(json.dumps(record) + "\n")

    server = make_server(journal=journal)
    status, _h, text = raw_request(server.port, "GET", "/healthz")
    assert status == 200, text
    assert server.queue.torn_lines == 1
    assert server.queue.jobs() == []


@pytest.mark.parametrize("kind", ["service", "fleet"])
def test_start_on_a_taken_port_fails_fast(kind, tmp_path):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        if kind == "service":
            server = ServiceServer(port=port)
        else:
            server = FleetServer(workers=1, port=port,
                                 store=tmp_path / "store",
                                 journal_dir=tmp_path / "journals")
        start = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            server.start_in_thread()
        assert time.monotonic() - start < 5
    assert isinstance(excinfo.value.__cause__, OSError)
    # a fleet that failed to bind leaves no worker process behind
    workers = getattr(server, "workers", {})
    assert len(workers) == (1 if kind == "fleet" else 0)
    assert not any(w.process.is_alive() for w in workers.values())


class TestBackpressure:
    def test_full_queue_is_429_with_retry_after(self, make_server):
        server = make_server(queue_limit=1)
        server.scheduler.paused = True  # nothing drains the queue
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        client.submit([tiny_spec()])
        with pytest.raises(ServiceError) as excinfo:
            client.submit([tiny_spec(seed=2)])
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1
        metrics = client.metrics()
        assert metrics["counters"]["service.rejected_backpressure"] == 1

    def test_coalesced_jobs_do_not_consume_queue_slots(self, make_server):
        server = make_server(queue_limit=1)
        server.scheduler.paused = True
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        first = client.submit([tiny_spec()])
        # identical work coalesces instead of tripping backpressure
        second = client.submit([tiny_spec()])
        assert second["coalesced_with"] == first["job_id"]

    def test_client_busy_timeout_retries_through_429(self, make_server):
        server = make_server(queue_limit=1)
        server.scheduler.paused = True
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               busy_timeout=0.0)
        client.submit([tiny_spec()])
        with pytest.raises(ServiceError):
            client.submit([tiny_spec(seed=2)])


class TestRateLimit:
    def test_second_request_within_burst_window_is_429(self, make_server):
        server = make_server(rate=0.001, burst=1,
                             trust_proxy_headers=True)
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               client_id="limited")
        server.scheduler.paused = True
        client.submit([tiny_spec()])
        with pytest.raises(ServiceError) as excinfo:
            client.submit([tiny_spec(seed=2)])
        assert excinfo.value.status == 429
        metrics = ServiceClient(
            f"http://127.0.0.1:{server.port}", client_id="other").metrics()
        assert metrics["counters"]["service.rejected_ratelimit"] == 1

    def test_distinct_clients_have_distinct_buckets(self, make_server):
        server = make_server(rate=0.001, burst=1,
                             trust_proxy_headers=True)
        server.scheduler.paused = True
        one = ServiceClient(f"http://127.0.0.1:{server.port}",
                            client_id="one")
        two = ServiceClient(f"http://127.0.0.1:{server.port}",
                            client_id="two")
        one.submit([tiny_spec()])
        two.submit([tiny_spec(seed=2)])  # different bucket: admitted

    def test_reads_are_not_rate_limited(self, make_server):
        server = make_server(rate=0.001, burst=1)
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               client_id="reader")
        for _ in range(5):
            assert client.healthz()["status"] == "ok"


class TestEndpoints:
    def test_healthz_reports_queue_state(self, server, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["pending"] == 0
        assert health["queue_limit"] == 64
        assert health["uptime_s"] >= 0

    def test_metrics_json_and_prometheus(self, server, client):
        client.healthz()
        metrics = client.metrics()
        assert metrics["counters"]["service.http_requests"] >= 1
        text = client.metrics_text()
        assert "# TYPE repro_service_http_requests_total counter" in text

    def test_jobs_listing(self, make_server):
        server = make_server()
        server.scheduler.paused = True
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        submitted = client.submit([tiny_spec()], priority=7)
        listing = client.jobs()
        assert len(listing) == 1
        assert listing[0]["job_id"] == submitted["job_id"]
        assert listing[0]["priority"] == 7
        detail = client.job(submitted["job_id"])
        assert detail["cells"][0]["spec"]["mix"] == "iso-tpch"
        assert detail["cells"][0]["spec"]["measured_refs"] \
            == TINY["measured_refs"]


class TestResultBodies:
    """``GET /results/<key>`` sends the store's once-built encoding."""

    @pytest.fixture
    def stored(self, make_server):
        from repro.core.experiment import run_experiment
        from repro.core.store import ResultStore

        spec = tiny_spec()
        result = run_experiment(spec, use_cache=False)
        store = ResultStore()
        key = store.put(spec, result)
        return make_server(store=store), key, result

    def test_repeat_gets_send_one_encoding(self, stored, monkeypatch):
        import repro.core.store as store_mod
        import repro.service.httpcommon as httpcommon
        from repro.core.store import result_from_dict, result_to_dict

        server, key, result = stored
        calls = []

        def counted(stored_result):
            calls.append(stored_result)
            return result_to_dict(stored_result)

        # count the codec wherever the serve path reaches it
        monkeypatch.setattr(store_mod, "result_to_dict", counted)
        monkeypatch.setattr(httpcommon, "result_to_dict", counted,
                            raising=False)
        status, headers, first = raw_request(server.port, "GET",
                                             f"/results/{key}")
        assert status == 200 and len(calls) == 1
        status, _h, second = raw_request(server.port, "GET",
                                         f"/results/{key}")
        assert status == 200 and len(calls) == 1
        assert second == first
        assert int(headers["content-length"]) == len(first.encode("utf-8"))
        body = json.loads(first)
        assert body["spec_key"] == key
        assert body["result"] == result_to_dict(result)
        assert result_from_dict(body["result"]).final_time \
            == result.final_time
        assert server.store.stats.memory_hits == 2

    def test_cleared_store_answers_404(self, stored):
        server, key, _result = stored
        assert raw_request(server.port, "GET", f"/results/{key}")[0] == 200
        server.store.clear_memory()
        assert raw_request(server.port, "GET", f"/results/{key}")[0] == 404

    def test_responses_are_single_line_json(self, server):
        status, _h, text = raw_request(server.port, "GET", "/healthz")
        assert status == 200
        assert text.count("\n") == 1 and text.endswith("\n")
        assert '"status": "ok"' in text


class TestDrain:
    def test_draining_server_rejects_submissions_with_503(
            self, make_server):
        server = make_server()
        server.scheduler.drain()
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        assert client.healthz()["status"] == "draining"
        status, _h, text = raw_request(
            server.port, "POST", "/jobs",
            body=json.dumps({"specs": [{"mix": "mix5"}]}).encode())
        assert status == 503
        assert "draining" in text

    def test_drain_journals_pending_jobs_for_next_process(
            self, make_server, tmp_path):
        from repro.service.jobs import JobQueue, JobState

        journal = tmp_path / "journal.jsonl"
        server = make_server(journal=journal)
        server.scheduler.paused = True
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        job = client.submit([tiny_spec()])
        server.shutdown()  # graceful: drains, leaves pending journaled

        replayed = JobQueue(journal)
        assert replayed.get(job["job_id"]).state == JobState.SUBMITTED
        assert replayed.recovered == 1


def test_client_raises_on_unreachable_server():
    client = ServiceClient("http://127.0.0.1:1", timeout=1)
    with pytest.raises(ServiceError) as excinfo:
        client.healthz()
    assert "cannot reach" in str(excinfo.value)


def test_client_rejects_bad_urls():
    with pytest.raises(ServiceError):
        ServiceClient("ftp://example.com")


class TestClientKeying:
    """Rate-limit identity.

    Trusted (behind a proxy): X-Client-Id > X-Forwarded-For > peer.
    Untrusted (the default): the socket peer, always — the headers
    are client-controlled and would let anyone mint a fresh bucket
    per request.
    """

    class FakeWriter:
        def __init__(self, peer=("10.0.0.9", 4242)):
            self._peer = peer

        def get_extra_info(self, name):
            return self._peer if name == "peername" else None

    def test_explicit_client_id_wins_when_trusted(self):
        from repro.service.server import client_key_of

        key = client_key_of(
            {"x-client-id": "alice", "x-forwarded-for": "1.2.3.4"},
            self.FakeWriter(), trust_headers=True)
        assert key == "alice"

    def test_forwarded_for_uses_leftmost_hop(self):
        from repro.service.server import client_key_of

        key = client_key_of(
            {"x-forwarded-for": "1.2.3.4, 10.0.0.1, 10.0.0.2"},
            self.FakeWriter(), trust_headers=True)
        assert key == "1.2.3.4"

    def test_untrusted_ignores_identity_headers(self):
        from repro.service.server import client_key_of

        key = client_key_of(
            {"x-client-id": "alice", "x-forwarded-for": "1.2.3.4"},
            self.FakeWriter())
        assert key == "10.0.0.9"

    def test_falls_back_to_peer_address(self):
        from repro.service.server import client_key_of

        assert client_key_of({}, self.FakeWriter(),
                             trust_headers=True) == "10.0.0.9"

    def test_no_peer_is_anon(self):
        from repro.service.server import client_key_of

        assert client_key_of({}, self.FakeWriter(peer=None)) == "anon"

    def test_proxied_clients_rate_limited_separately(self, make_server):
        """Two clients behind one trusted proxy get distinct buckets."""
        server = make_server(rate=0.001, burst=1,
                             trust_proxy_headers=True)
        body = json.dumps({"specs": [{"mix": "mix1", **TINY}]})

        def submit(xff):
            return raw_request(
                server.port, "POST", "/jobs", body=body.encode(),
                headers={"Content-Type": "application/json",
                         "X-Forwarded-For": xff})[0]

        assert submit("1.1.1.1") == 202
        assert submit("2.2.2.2") == 202  # different origin, own bucket
        assert submit("1.1.1.1, 9.9.9.9") == 429  # same origin: limited

    def test_spoofed_identities_cannot_dodge_the_bucket(
            self, make_server):
        """A direct client minting ids per request stays one bucket."""
        server = make_server(rate=0.001, burst=1)
        server.scheduler.paused = True
        body = json.dumps({"specs": [{"mix": "mix1", **TINY}]})

        def submit(seed, client_id):
            payload = json.loads(body)
            payload["specs"][0]["seed"] = seed
            return raw_request(
                server.port, "POST", "/jobs",
                body=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json",
                         "X-Client-Id": client_id})[0]

        assert submit(1, "alias-1") == 202
        assert submit(2, "alias-2") == 429  # same peer: same bucket
