"""Tests for the ``repro top`` dashboard renderer."""

from repro.analysis.top import render_dashboard
from repro.obs import Telemetry


def service_snapshot(completed=5, depth=2, waits=(0.05, 0.2)):
    hub = Telemetry()
    hub.counter("service.submitted").inc(completed + 1)
    hub.counter("service.completed").inc(completed)
    hub.gauge("service.queue_depth").set(depth)
    for value in waits:
        hub.histogram("service.queue_wait_seconds",
                      bounds=(0.1, 1.0, 10.0)).observe(value)
    hub.gauge("service.slo.window_requests").set(10)
    hub.gauge("service.slo.p99_seconds").set(0.25)
    hub.gauge("service.slo.error_rate").set(0.02)
    hub.gauge("service.slo.burn_rate").set(2.0)
    return hub.snapshot()


class TestRenderDashboard:
    def test_plain_service_snapshot(self):
        text = render_dashboard(service_snapshot())
        assert "submitted" in text
        assert "queue wait" in text
        assert "queue depth 2" in text

    def test_latency_percentiles_rendered(self):
        text = render_dashboard(service_snapshot(waits=[0.05] * 99 + [5.0]))
        line = next(ln for ln in text.splitlines() if "queue wait" in ln)
        assert "100" in line  # observation count
        assert "ms" in line

    def test_slo_row_flags_budget_burn(self):
        text = render_dashboard(service_snapshot())
        line = next(ln for ln in text.splitlines() if ln.startswith("service"))
        assert "BURNING" in line
        assert "2.00x" in line

    def test_rates_from_previous_frame(self):
        now = service_snapshot(completed=10)
        prev = service_snapshot(completed=4)
        text = render_dashboard(now, previous=prev, interval=2.0)
        line = next(ln for ln in text.splitlines() if "completed" in ln)
        assert "3.00/s" in line  # (10 - 4) / 2s

    def test_healthz_headline(self):
        text = render_dashboard(
            service_snapshot(),
            healthz={"status": "draining", "uptime_s": 12.0, "jobs": 2})
        assert "service: draining, up 12s" in text
        assert "jobs 2" in text

    def test_empty_payload(self):
        assert "(no metrics yet)" in render_dashboard({})
