"""Tests for the telemetry hub and its null twin."""

import pytest

from repro.obs.telemetry import (
    NULL_TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    NullTelemetry,
    Telemetry,
)


class TestInstruments:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_last_write_wins(self):
        g = Gauge("g")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_buckets(self):
        h = Histogram("h", bounds=(1, 10, 100))
        for value in (0.5, 5, 50, 500):
            h.observe(value)
        assert h.counts == [1, 1, 1, 1]  # one overflow
        assert h.observations == 4
        assert h.mean == pytest.approx(555.5 / 4)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(10, 1))

    def test_empty_histogram_mean(self):
        assert Histogram("h").mean == 0.0


class TestHub:
    def test_create_on_first_use_returns_same_instrument(self):
        hub = Telemetry()
        assert hub.counter("x") is hub.counter("x")
        assert hub.gauge("y") is hub.gauge("y")
        assert hub.histogram("z") is hub.histogram("z")
        assert hub.series_for("s") is hub.series_for("s")

    def test_counter_accumulates_through_hub(self):
        hub = Telemetry()
        hub.counter("hits").inc()
        hub.counter("hits").inc()
        assert hub.counters["hits"].value == 2

    def test_span_records_wall_complete_event(self):
        hub = Telemetry()
        with hub.span("work", cat="test", attrs={"k": 1}):
            pass
        events = hub.trace.spans()
        assert len(events) == 1
        event = events[0]
        assert event.ph == "X"
        assert event.clock == "wall"
        assert event.name == "work"
        assert event.dur >= 0
        assert event.attrs == {"k": 1}

    def test_record_span_backdates_start(self):
        import time

        hub = Telemetry()
        hub.trace.record_span("cell", cat="executor", duration_s=2.0)
        event = hub.trace.spans()[0]
        assert event.ph == "X"
        assert event.dur == pytest.approx(2e6)
        # the span ends "now": start = now - dur
        assert event.ts + event.dur <= time.time_ns() // 1000

    def test_event_appends_to_trace(self):
        hub = Telemetry()
        hub.event("e", "c", "i", 1)
        assert [e.name for e in hub.trace.spans()] == ["e"]
        assert hub.trace.spans()[0].clock == "sim"

    def test_snapshot_is_json_serializable(self):
        import json

        hub = Telemetry()
        hub.counter("c").inc()
        hub.gauge("g").set(2.5)
        hub.histogram("h").observe(3)
        hub.series_for("vm0.miss_rate").append(5000, 0.25)
        with hub.span("s"):
            pass
        snap = json.loads(json.dumps(hub.snapshot()))
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["histograms"]["h"]["observations"] == 1
        assert snap["series"] == {"vm0.miss_rate": [[5000, 0.25]]}
        assert snap["trace_events"] == 1
        assert snap["trace_dropped"] == 0

    def test_enabled_flag(self):
        assert Telemetry().enabled is True
        assert NullTelemetry().enabled is False
        assert NULL_TELEMETRY.enabled is False


class TestNullTelemetry:
    def test_absorbs_everything_without_state(self):
        hub = NullTelemetry()
        hub.counter("c").inc()
        hub.gauge("g").set(9)
        hub.histogram("h").observe(1)
        hub.event("e", "c", "i", 0)
        with hub.span("s"):
            pass
        assert hub.counters == {}
        assert hub.gauges == {}
        assert hub.histograms == {}
        assert len(hub.trace) == 0
        assert hub.snapshot()["trace_events"] == 0

    def test_shared_null_instrument(self):
        hub = NullTelemetry()
        # all handles are the same allocation-free singleton
        assert hub.counter("a") is hub.counter("b")
        assert hub.counter("a") is hub.gauge("g")
        assert hub.counter("a").value == 0

    def test_series_for_is_a_throwaway(self):
        hub = NullTelemetry()
        hub.series_for("x").append(1, 2.0)
        assert hub.series == {}
        assert len(hub.series_for("x").points) == 0


class TestPrometheusRendering:
    """``render_prometheus`` maps a snapshot to text exposition v0.0.4
    (what ``GET /metrics?format=prometheus`` serves)."""

    def test_counters_and_gauges(self):
        from repro.obs.telemetry import render_prometheus

        hub = Telemetry()
        hub.counter("service.submitted").inc(3)
        hub.gauge("service.queue_depth").set(7)
        text = render_prometheus(hub.snapshot())
        assert "# TYPE repro_service_submitted_total counter" in text
        assert "repro_service_submitted_total 3" in text
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "repro_service_queue_depth 7" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        from repro.obs.telemetry import render_prometheus

        hub = Telemetry()
        hist = hub.histogram("job.wall_s", bounds=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(0.7)
        hist.observe(5.0)
        text = render_prometheus(hub.snapshot())
        assert '# TYPE repro_job_wall_s histogram' in text
        assert 'repro_job_wall_s_bucket{le="1.0"} 2' in text
        assert 'repro_job_wall_s_bucket{le="10.0"} 3' in text
        assert 'repro_job_wall_s_bucket{le="+Inf"} 3' in text
        assert "repro_job_wall_s_count 3" in text
        assert "repro_job_wall_s_sum 6.2" in text

    def test_illegal_characters_are_sanitized(self):
        from repro.obs.telemetry import render_prometheus

        hub = Telemetry()
        hub.counter("weird-name.with chars").inc()
        text = render_prometheus(hub.snapshot())
        assert "repro_weird_name_with_chars_total 1" in text

    def test_empty_snapshot_renders_empty(self):
        from repro.obs.telemetry import render_prometheus

        assert render_prometheus(Telemetry().snapshot()) == "\n"
        assert render_prometheus(NULL_TELEMETRY.snapshot()) == "\n"
