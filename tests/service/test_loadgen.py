"""Tests for the open-loop Poisson load generator."""

import pytest

from repro.bench.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    _host_port,
    percentile,
    run_loadgen,
    saturation_sweep,
)
from repro.bench.records import load_bench_file
from repro.errors import ReproError
from repro.service import ServiceServer


class TestPercentile:
    def test_exact_on_known_samples(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 100) == 5.0
        assert percentile(values, 25) == 2.0

    def test_interpolates_between_samples(self):
        assert percentile([0.0, 1.0], 50) == pytest.approx(0.5)
        assert percentile([0.0, 10.0], 90) == pytest.approx(9.0)

    def test_order_does_not_matter(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0

    def test_degenerate_inputs(self):
        assert percentile([], 99) == 0.0
        assert percentile([7.0], 99) == 7.0

    def test_rejects_bad_q(self):
        with pytest.raises(ReproError):
            percentile([1.0], 0)
        with pytest.raises(ReproError):
            percentile([1.0], 101)


class TestConfig:
    def test_url_parsing(self):
        assert _host_port("http://127.0.0.1:8765") == ("127.0.0.1", 8765)
        assert _host_port("http://localhost:80/") == ("localhost", 80)
        with pytest.raises(ReproError):
            _host_port("localhost")  # no port

    @pytest.mark.parametrize("bad", [
        dict(rate=0.0), dict(rate=-1.0), dict(duration=0.0),
        dict(warm_fraction=1.5), dict(warm_fraction=-0.1), dict(pool=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ReproError):
            LoadgenConfig(url="http://h:1", **bad)

    def test_report_metrics_and_record_shape(self):
        config = LoadgenConfig(url="http://h:1", rate=10.0, duration=1.0)
        report = LoadgenReport(config=config, submitted=10, completed=9,
                               shed=1, elapsed=1.0,
                               latencies=[0.01] * 9,
                               warm_latencies=[0.01] * 9)
        metrics = report.metrics()
        assert metrics["achieved_jobs_per_sec"] == pytest.approx(9.0)
        assert metrics["sustained"] == 1.0
        assert metrics["p99_ms"] == pytest.approx(10.0)
        record = report.to_record(extra_params={"url": "http://h:1"})
        assert record.target == "service"
        assert record.params["url"] == "http://h:1"
        assert "jobs" not in record.params  # no server said how many
        assert record.metrics["shed"] == 1.0
        report.jobs = 2
        assert report.to_record().params["jobs"] == 2

    def test_not_sustained_below_ninety_percent(self):
        config = LoadgenConfig(url="http://h:1", rate=10.0, duration=1.0)
        report = LoadgenReport(config=config, submitted=10, completed=8,
                               elapsed=1.0, latencies=[0.01] * 8)
        assert not report.sustained


class TestLiveRuns:
    @pytest.fixture
    def server(self):
        server = ServiceServer(port=0, concurrency=2).start_in_thread()
        yield server
        server.shutdown()

    def test_warm_open_loop_run(self, server, tmp_path):
        config = LoadgenConfig(
            url=f"http://{server.host}:{server.port}",
            rate=25.0, duration=1.0, warm_fraction=1.0, pool=2,
            refs=300, seed=3, timeout=60.0)
        report = run_loadgen(config)
        assert report.submitted > 0
        assert report.completed == report.submitted
        assert report.failed == 0 and report.shed == 0
        assert len(report.latencies) == report.completed
        assert report.warm_latencies and not report.cold_latencies
        metrics = report.metrics()
        assert 0 < metrics["p50_ms"] <= metrics["p99_ms"]
        assert report.jobs == 1  # the server's pool size, from /healthz

        # the record validates against the bench schema on disk
        from repro.bench.records import append_records
        path, = append_records(tmp_path, [report.to_record(quick=True)])
        payload = load_bench_file(path)
        assert path.name == "BENCH_service.json"
        assert payload["records"][0]["bench"] == "service-loadgen"
        assert payload["records"][0]["params"]["jobs"] == 1

    def test_mixed_run_simulates_cold_cells(self, server):
        config = LoadgenConfig(
            url=f"http://{server.host}:{server.port}",
            rate=10.0, duration=1.0, warm_fraction=0.5, pool=2,
            refs=300, seed=4, timeout=60.0)
        report = run_loadgen(config)
        assert report.completed == report.submitted
        assert report.cold_latencies  # seeded mix always draws cold

    def test_saturation_sweep_returns_one_report_per_rate(self, server):
        base = LoadgenConfig(
            url=f"http://{server.host}:{server.port}",
            rate=1.0, duration=0.6, warm_fraction=1.0, pool=2,
            refs=300, seed=5, timeout=60.0)
        reports = saturation_sweep(base.url, [10.0, 20.0], base=base)
        assert [r.config.rate for r in reports] == [10.0, 20.0]
        assert all(r.completed == r.submitted for r in reports)
        # priming happened once: the sweep's later runs reuse the pool
        assert reports[0].config.prime and not reports[1].config.prime

    def test_job_latency_includes_the_result_fetch(self, server,
                                                   monkeypatch):
        served = []
        encoded_by_key = server.store.encoded_by_key

        def counting(key):
            served.append(key)
            return encoded_by_key(key)

        monkeypatch.setattr(server.store, "encoded_by_key", counting)
        config = LoadgenConfig(
            url=f"http://{server.host}:{server.port}",
            rate=10.0, duration=0.5, warm_fraction=1.0, pool=1,
            refs=300, seed=6, timeout=60.0)
        report = run_loadgen(config)
        assert report.completed == report.submitted > 0
        # one fetch for the priming job, one per timed job
        assert len(served) == report.submitted + 1

    def test_failed_result_fetch_counts_as_error(self, server,
                                                  monkeypatch):
        base = dict(url=f"http://{server.host}:{server.port}",
                    rate=10.0, duration=0.5, warm_fraction=1.0, pool=1,
                    refs=300, seed=7, timeout=60.0)
        run_loadgen(LoadgenConfig(**base))  # prime the pool
        # the job still reports done, but its stored result is gone
        monkeypatch.setattr(server.store, "encoded_by_key",
                            lambda key: None)
        report = run_loadgen(LoadgenConfig(**base, prime=False))
        assert report.submitted > 0
        assert report.failed == report.submitted
        assert report.completed == 0 and not report.latencies

    def test_sweep_requires_rates(self, server):
        with pytest.raises(ReproError):
            saturation_sweep(f"http://{server.host}:{server.port}", [])
