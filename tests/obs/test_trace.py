"""Tests for the trace ring (a :class:`Tracer`) and the Chrome exporter."""

import json

import pytest

from repro.obs.tracing import (
    SIM_LANE_PID,
    Span,
    Tracer,
    export_chrome_trace,
    spans_to_chrome,
)


def wall(name="w", pid=1234, process="proc", ts=0, dur=0):
    return Span(name=name, cat="test", trace_id="a" * 32,
                span_id="1" * 16, parent_id=None, ts=ts, dur=dur,
                process=process, pid=pid)


def sim(name="e", ph="i", cycle=0, **kw):
    tracer = Tracer("t")
    return tracer.sim_event(name, "test", ph, cycle, **kw)


def chrome_events(spans):
    return [e for e in spans_to_chrome(spans)["traceEvents"]
            if e["ph"] != "M"]


def lane_labels(spans):
    return {e["pid"]: e["args"]["name"]
            for e in spans_to_chrome(spans)["traceEvents"]
            if e["ph"] == "M"}


class TestTraceBuffer:
    def test_append_and_iterate_in_order(self):
        tracer = Tracer("t", capacity=8)
        for index in range(3):
            tracer.sim_event(f"e{index}", "test", "i", index)
        assert [e.name for e in tracer.spans()] == ["e0", "e1", "e2"]
        assert len(tracer) == 3
        assert tracer.dropped == 0

    def test_overflow_drops_oldest_and_counts(self):
        tracer = Tracer("t", capacity=3)
        for index in range(5):
            tracer.sim_event(f"e{index}", "test", "i", index)
        assert [e.name for e in tracer.spans()] == ["e2", "e3", "e4"]
        assert tracer.dropped == 2
        assert len(tracer) == 3

    def test_clear_resets_dropped(self):
        tracer = Tracer("t", capacity=1)
        tracer.sim_event("e", "test", "i", 0)
        tracer.sim_event("e", "test", "i", 1)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer("t", capacity=0)


class TestEventJson:
    def test_complete_span_has_dur(self):
        (d,) = chrome_events([wall(ts=10, dur=5)])
        assert d["ph"] == "X"
        assert d["dur"] == 5

    def test_instant_has_scope_and_no_dur(self):
        (d,) = chrome_events([sim(ph="i", cycle=1)])
        assert d["s"] == "t"
        assert "dur" not in d

    def test_counter_args_pass_through(self):
        (d,) = chrome_events([sim(ph="C", attrs={"vm0": 0.5})])
        assert d["args"] == {"vm0": 0.5}
        assert "dur" not in d


class TestChromeTraceExport:
    def test_dict_includes_metadata_for_seen_pids_only(self):
        labels = lane_labels([sim()])
        assert list(labels) == [SIM_LANE_PID]
        assert "cycle" in labels[SIM_LANE_PID]

    def test_both_clock_domains_labelled(self):
        labels = lane_labels([sim(), wall(pid=1234)])
        assert set(labels) == {SIM_LANE_PID, 1234}

    def test_unknown_pids_get_distinct_fallback_labels(self):
        # merged multi-process traces: every OS pid present in the
        # stream must render as its own named lane, not collide
        labels = lane_labels([wall(pid=1234), wall(pid=5678)])
        assert labels == {1234: "proc (pid 1234)", 5678: "proc (pid 5678)"}

    def test_caller_labels_override_fallbacks(self):
        # a span's process name labels its lane; the sim lane keeps its
        # cycle label alongside
        labels = lane_labels([wall(pid=1234, process="worker w0"), sim()])
        assert labels[1234] == "worker w0 (pid 1234)"
        assert "cycle" in labels[SIM_LANE_PID]

    def test_export_writes_loadable_json(self, tmp_path):
        spans = [wall(name="span", ts=100, dur=3),
                 sim(name="mark", cycle=1)]
        path = export_chrome_trace(spans, tmp_path / "trace.json")
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        names = [e["name"] for e in loaded["traceEvents"]]
        assert "span" in names and "mark" in names
        # every event carries the fields Perfetto requires
        for event in loaded["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
        # wall time is normalised to the first wall span, cycles are raw
        stamps = {e["name"]: e["ts"] for e in loaded["traceEvents"]
                  if e["ph"] != "M"}
        assert stamps == {"span": 0, "mark": 1.0}


class TestSpanLogShape:
    def test_wall_span_line_omits_default_phase_and_clock(self):
        assert not {"ph", "clock"} & set(wall().to_json_dict())

    def test_sim_event_round_trips_phase_and_clock(self):
        event = sim(ph="C", cycle=7, attrs={"vm0": 1})
        data = event.to_json_dict()
        assert (data["ph"], data["clock"]) == ("C", "sim")
        back = Span.from_json_dict(data)
        assert (back.ph, back.clock, back.ts) == ("C", "sim", 7)
