"""Tests for distributed tracing: contexts, span logs, the collector,
clock alignment, and critical-path attribution."""

import json

import pytest

from repro.obs.tracing import (
    Span,
    SpanContext,
    Tracer,
    align_clocks,
    collect_spans,
    critical_path,
    process_tracer,
    read_span_log,
    spans_to_chrome,
    trace_for_job,
    validate_trace,
)


def make_span(name="s", cat="job", trace="a" * 32, span_id="1" * 16,
              parent=None, ts=0, dur=10, process="svc", pid=1, **kw):
    return Span(name=name, cat=cat, trace_id=trace, span_id=span_id,
                parent_id=parent, ts=ts, dur=dur, process=process,
                pid=pid, **kw)


class TestSpanContext:
    def test_traceparent_roundtrip(self):
        ctx = SpanContext.mint()
        parsed = SpanContext.parse(ctx.to_traceparent())
        assert parsed == ctx

    def test_parse_is_case_insensitive_and_strips(self):
        ctx = SpanContext.mint()
        header = "  " + ctx.to_traceparent().upper() + "  "
        assert SpanContext.parse(header) == ctx

    @pytest.mark.parametrize("header", [
        None, "", "garbage", "00-short-short-01",
        "99-" + "a" * 32 + "-" + "b" * 16 + "-01-extra",
        "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # non-hex
    ])
    def test_invalid_headers_parse_to_none(self, header):
        assert SpanContext.parse(header) is None

    def test_child_shares_trace_id_with_fresh_span_id(self):
        parent = SpanContext.mint()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.span_id != parent.span_id


class TestTracer:
    def test_start_span_records_parent_edge(self):
        tracer = Tracer("t")
        with tracer.start_span("parent") as outer:
            with tracer.start_span("child", parent=outer.context):
                pass
        child, parent = tracer.spans()
        assert child.name == "child"
        assert child.parent_id == parent.span_id
        assert child.trace_id == parent.trace_id

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer("t")
        with pytest.raises(RuntimeError):
            with tracer.start_span("boom"):
                raise RuntimeError("nope")
        (span,) = tracer.spans()
        assert span.status == "error"
        assert "RuntimeError" in span.attrs["error"]

    def test_record_span_with_preminted_context(self):
        # children recorded before the parent span lands must chain
        tracer = Tracer("t")
        ctx = tracer.new_context()
        tracer.record_span("child", "sim", 0.001, parent=ctx)
        tracer.record_span("parent", "job", 0.002, context=ctx)
        child, parent = tracer.spans()
        assert child.parent_id == parent.span_id

    def test_ring_is_bounded_and_counts_drops(self):
        tracer = Tracer("t", capacity=3)
        for index in range(5):
            tracer.record_span(f"s{index}", "job", 0.0)
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]
        assert tracer.dropped == 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer("t", capacity=0)

    def test_no_log_dir_leaves_no_files(self, tmp_path):
        tracer = Tracer("t")
        tracer.record_span("s", "job", 0.0)
        assert tracer.log_path is None
        assert list(tmp_path.iterdir()) == []


class TestSpanLog:
    def test_spans_flush_to_jsonl_and_read_back(self, tmp_path):
        tracer = Tracer("svc", log_dir=tmp_path)
        with tracer.start_span("a", cat="route"):
            pass
        assert tracer.log_path is not None
        assert tracer.log_path.name.startswith("svc-")
        spans, torn = read_span_log(tracer.log_path)
        assert torn == 0
        assert [s.name for s in spans] == ["a"]
        assert spans[0].cat == "route"

    def test_torn_trailing_line_is_skipped_not_fatal(self, tmp_path):
        tracer = Tracer("svc", log_dir=tmp_path)
        tracer.record_span("ok", "job", 0.0)
        with open(tracer.log_path, "a") as handle:
            handle.write('{"name": "torn", "trace_id')  # crash mid-append
        spans, torn = read_span_log(tracer.log_path)
        assert [s.name for s in spans] == ["ok"]
        assert torn == 1

    def test_collect_merges_processes_sorted_by_ts(self, tmp_path):
        late = Tracer("b", log_dir=tmp_path)
        early = Tracer("a", log_dir=tmp_path)
        late.record_span("late", "job", 0.0, ts_us=2000)
        early.record_span("early", "job", 0.0, ts_us=1000)
        spans, torn = collect_spans(tmp_path)
        assert torn == 0
        assert [s.name for s in spans] == ["early", "late"]

    def test_missing_dir_collects_nothing(self, tmp_path):
        spans, torn = collect_spans(tmp_path / "absent")
        assert spans == [] and torn == 0

    def test_process_tracer_is_a_singleton_per_key(self, tmp_path):
        a = process_tracer(tmp_path, "worker")
        b = process_tracer(tmp_path, "worker")
        other = process_tracer(tmp_path, "other")
        assert a is b
        assert other is not a


class TestCollector:
    def test_validate_splits_roots_and_orphans(self):
        root = make_span(span_id="1" * 16)
        child = make_span(span_id="2" * 16, parent="1" * 16)
        orphan = make_span(span_id="3" * 16, parent="f" * 16)
        report = validate_trace([root, child, orphan])
        assert report["roots"] == [root]
        assert report["orphans"] == [orphan]

    def test_trace_for_job_pulls_the_whole_tree(self):
        hit = make_span(span_id="1" * 16,
                        attrs={"job_id": "j1"})
        sibling = make_span(span_id="2" * 16)  # same trace, no attr
        other = make_span(trace="b" * 32, span_id="3" * 16,
                          attrs={"job_id": "j2"})
        picked = trace_for_job([hit, sibling, other], "j1")
        assert picked == [hit, sibling]

    def test_align_clocks_shifts_skewed_process_forward(self):
        # parent on pid 1 starts at t=1000; its child's process has a
        # clock 500us behind, making the child appear to start first
        parent = make_span(span_id="1" * 16, ts=1000, dur=400,
                           process="front", pid=1)
        child = make_span(span_id="2" * 16, parent="1" * 16, ts=500,
                          dur=100, process="worker", pid=2)
        aligned = align_clocks([parent, child])
        by_name = {s.span_id: s for s in aligned}
        assert by_name["1" * 16].ts == 1000  # parent untouched
        assert by_name["2" * 16].ts >= 1000  # child no longer precedes

    def test_align_clocks_noop_on_shared_clock(self):
        parent = make_span(span_id="1" * 16, ts=1000, dur=400)
        child = make_span(span_id="2" * 16, parent="1" * 16, ts=1100,
                          dur=100)
        spans = [parent, child]
        assert align_clocks(spans) is spans

    def test_chrome_export_uses_real_pid_lanes(self):
        spans = [
            make_span(span_id="1" * 16, process="front", pid=10),
            make_span(span_id="2" * 16, parent="1" * 16,
                      process="worker", pid=20, ts=5),
        ]
        payload = spans_to_chrome(spans)
        json.dumps(payload)  # must be serializable
        metadata = {e["pid"]: e["args"]["name"]
                    for e in payload["traceEvents"] if e["ph"] == "M"}
        assert metadata == {10: "front (pid 10)", 20: "worker (pid 20)"}
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in events} == {10, 20}
        assert min(e["ts"] for e in events) == 0  # origin-normalized
        child = next(e for e in events if e["args"].get("parent_id"))
        assert child["args"]["parent_id"] == "1" * 16

    def test_chrome_export_empty(self):
        assert spans_to_chrome([]) == {"traceEvents": [],
                                       "displayTimeUnit": "ms"}


class TestCriticalPath:
    def test_segments_sum_to_makespan_exactly(self):
        spans = [
            make_span("e2e", cat="job", span_id="1" * 16, ts=0, dur=100),
            make_span("wait", cat="queue", span_id="2" * 16,
                      parent="1" * 16, ts=0, dur=30),
            make_span("run", cat="run", span_id="3" * 16,
                      parent="1" * 16, ts=40, dur=50),
            make_span("sim", cat="sim", span_id="4" * 16,
                      parent="3" * 16, ts=45, dur=40),
        ]
        path = critical_path(spans)
        assert path.total_us == 100
        assert sum(path.segments.values()) == 100
        # deepest covering span wins each interval
        assert path.segments["sim"] == 40
        assert path.segments["queue"] == 30
        assert path.segments["run"] == 10  # 40-45 and 85-90
        assert path.segments["job"] == 20  # 30-40 and 90-100

    def test_uncovered_gap_counts_as_idle(self):
        spans = [
            make_span(cat="route", span_id="1" * 16, ts=0, dur=10),
            make_span(cat="run", span_id="2" * 16, ts=50, dur=10),
        ]
        path = critical_path(spans)
        assert path.total_us == 60
        assert path.segments == {"route": 10, "idle": 40, "run": 10}

    def test_empty_trace(self):
        path = critical_path([])
        assert path.total_us == 0 and path.segments == {}
