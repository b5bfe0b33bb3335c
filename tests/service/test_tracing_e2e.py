"""End-to-end distributed tracing through the live service.

The acceptance scenario: a traced submit yields one connected span
tree — client → server handler → scheduler → executor — with a parent
for every non-root span, a critical path whose segments sum to the
job's end-to-end latency, and byte-identical simulation results with
tracing on or off.
"""

import json

from repro.obs import (
    Tracer,
    align_clocks,
    collect_spans,
    critical_path,
    trace_for_job,
    validate_trace,
)
from repro.service import ServiceClient

from .conftest import tiny_cells, tiny_spec


def traced_job(tmp_path, make_server, tracer=None):
    """Run one traced job to completion; returns (job, spans)."""
    trace_dir = tmp_path / "traces"
    server = make_server(trace_dir=trace_dir)
    client = ServiceClient(f"http://127.0.0.1:{server.port}",
                           client_id="traced", tracer=tracer)
    job = client.submit([tiny_spec()])
    job = client.wait(job["job_id"])
    assert job["state"] == "done"
    server.shutdown()  # every span is logged as it is recorded
    spans, torn = collect_spans(trace_dir)
    assert torn == 0
    return job, align_clocks(spans)


class TestTraceTree:
    def test_every_non_root_span_has_a_parent(self, tmp_path, make_server):
        trace_dir = tmp_path / "traces"
        client_tracer = Tracer("client", log_dir=trace_dir)
        job, spans = traced_job(tmp_path, make_server,
                                tracer=client_tracer)
        tree = trace_for_job(spans, job["job_id"])
        assert tree, "no spans recorded for the job"
        report = validate_trace(tree)
        assert report["orphans"] == []
        assert len(report["roots"]) == 1
        assert report["roots"][0].name == "client.submit"
        names = {s.name for s in tree}
        assert {"client.submit", "service.submit", "job.e2e",
                "job.queue_wait", "job.run", "executor.grid"} <= names

    def test_untraced_client_roots_at_the_server(self, tmp_path,
                                                 make_server):
        job, spans = traced_job(tmp_path, make_server)
        tree = trace_for_job(spans, job["job_id"])
        report = validate_trace(tree)
        assert report["orphans"] == []
        assert len(report["roots"]) == 1
        assert report["roots"][0].name == "service.submit"

    def test_sim_and_store_time_are_attributed(self, tmp_path,
                                               make_server):
        job, spans = traced_job(tmp_path, make_server)
        tree = trace_for_job(spans, job["job_id"])
        cats = {s.cat for s in tree}
        assert {"route", "queue", "run", "sim", "store", "job"} <= cats


class TestCriticalPathAccuracy:
    def test_segments_sum_to_e2e_within_5_percent(self, tmp_path,
                                                  make_server):
        job, spans = traced_job(tmp_path, make_server)
        tree = trace_for_job(spans, job["job_id"])
        path = critical_path(tree)
        assert path.total_us > 0
        # exact by construction ...
        assert sum(path.segments.values()) == path.total_us
        # ... and within 5% of the scheduler's own e2e measurement
        e2e = next(s for s in tree if s.name == "job.e2e")
        assert path.total_us >= e2e.dur
        assert path.total_us <= e2e.dur * 1.05 + 10_000


class TestZeroPerturbation:
    def test_results_byte_identical_with_tracing_on_and_off(
            self, tmp_path, make_server):
        cells = [spec for _key, spec in tiny_cells()]

        def run(**kwargs):
            server = make_server(**kwargs)
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            job = client.wait(client.submit(cells)["job_id"])
            assert job["cells_simulated"] == len(cells)
            return {
                key: json.dumps(client.result(key, decode=False),
                                sort_keys=True)
                for key in job["result_keys"]
            }

        plain = run()
        traced = run(trace_dir=tmp_path / "traces")
        assert plain == traced

    def test_no_trace_dir_means_no_tracer_no_files(self, make_server,
                                                   tmp_path):
        server = make_server()
        assert server.tracer is None
        assert server.scheduler.tracer is None
        assert list(tmp_path.iterdir()) == []


class TestSloGauges:
    def test_metrics_exports_rolling_slo(self, make_server):
        server = make_server()
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        client.wait(client.submit([tiny_spec()])["job_id"])
        gauges = client.metrics()["gauges"]
        assert gauges["service.slo.window_requests"] >= 1
        assert gauges["service.slo.error_rate"] == 0.0
        assert gauges["service.slo.p99_seconds"] >= 0.0
        text = client.metrics_text()
        assert "repro_service_slo_burn_rate" in text
