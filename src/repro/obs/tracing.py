"""The one event model: spans, the per-process ring, and its exporters.

Every trace event in the repository is a :class:`Span`, recorded by a
:class:`Tracer` into one bounded ring.  Spans live on one of two
clocks:

* ``clock="wall"`` (the default) — host time.  ``ts`` is epoch
  microseconds (``time.time_ns() // 1000``) so logs from different
  processes on one host share a clock; durations are measured with
  ``perf_counter`` for resolution.  Wall spans are complete events
  (``ph="X"``) and carry a distributed-trace identity.
* ``clock="sim"`` — simulated time.  ``ts`` is a simulation cycle.
  :meth:`Tracer.sim_event` records cycle-stamped instants (``"i"``) and
  counters (``"C"``): epoch samples, VM completions, migrations.  They
  join no distributed trace.

A job crosses several processes — client, HTTP server and scheduler,
executor pool processes — so the wall clock also carries the
cross-process layer:

* :class:`SpanContext` — a ``(trace_id, span_id)`` pair serialised in
  the W3C ``traceparent`` header format
  (``00-<32 hex trace id>-<16 hex span id>-<2 hex flags>``) so context
  survives HTTP hops and pickled multiprocessing payloads.
* :class:`Tracer` — a thread-safe per-process span recorder with a
  bounded in-memory ring, and (when given a ``log_dir``) an append-only
  JSONL span log under a shared trace directory.  Tracing must never
  be able to OOM or corrupt the system it observes: the ring is
  fixed-capacity (overflow drops the oldest span and counts it), log
  writes are one append per span, and readers tolerate torn trailing
  lines.
* A collector — :func:`collect_spans`, :func:`align_clocks`,
  :func:`trace_for_job`, :func:`validate_trace` — that merges the
  per-process logs into one timeline and aligns cross-process clock
  skew against each span's parent.
* :func:`spans_to_chrome` — the one Chrome-trace/Perfetto exporter:
  wall spans on real OS pid lanes, sim events on one cycle lane.
* :func:`critical_path` — a deepest-covering-span sweep that attributes
  every microsecond of a job's makespan to exactly one category
  (route, queue wait, simulation, store I/O, …), so the
  segment sum always equals the end-to-end span by construction.
"""

from __future__ import annotations

import glob
import json
import os
import re
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

__all__ = [
    "TRACEPARENT_HEADER",
    "SpanContext",
    "Span",
    "Tracer",
    "process_tracer",
    "read_span_log",
    "collect_spans",
    "align_clocks",
    "validate_trace",
    "trace_for_job",
    "spans_to_chrome",
    "export_chrome_trace",
    "critical_path",
    "CriticalPath",
    "CATEGORY_LABELS",
]

TRACEPARENT_HEADER = "traceparent"

SIM_LANE_PID = 0
"""Chrome-trace pid of the simulated-time lane.  No OS process can hold
pid 0, so the lane never collides with a real process lane."""

SIM_LANE_LABEL = "simulated time (1 cycle = 1 us)"

_TRACEPARENT_RE = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")

#: Human labels for span categories, in critical-path display order.
CATEGORY_LABELS = {
    "route": "route",
    "queue": "queue wait",
    "sim": "simulation",
    "store": "store I/O",
    "run": "dispatch",
    "job": "scheduler",
    "idle": "idle/poll",
}


def _new_trace_id() -> str:
    return uuid.uuid4().hex


def _new_span_id() -> str:
    return uuid.uuid4().hex[:16]


def _now_us() -> int:
    """Epoch microseconds — shared across processes on one host."""
    return time.time_ns() // 1000


@dataclass(frozen=True)
class SpanContext:
    """Immutable (trace, span) identity propagated across processes."""

    trace_id: str
    span_id: str

    def to_traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def parse(cls, header: Optional[str]) -> Optional["SpanContext"]:
        """Parse a ``traceparent`` header; None/invalid -> ``None``."""
        if not header:
            return None
        match = _TRACEPARENT_RE.match(header.strip().lower())
        if not match:
            return None
        return cls(trace_id=match.group(1), span_id=match.group(2))

    @classmethod
    def mint(cls) -> "SpanContext":
        """A fresh root context (new trace id)."""
        return cls(trace_id=_new_trace_id(), span_id=_new_span_id())

    def child(self) -> "SpanContext":
        """A new context in the same trace (caller records the edge)."""
        return SpanContext(trace_id=self.trace_id, span_id=_new_span_id())


@dataclass
class Span:
    """One finished span or simulated-time event.

    On the wall clock ``ts`` is epoch us and ``dur`` is us; on the sim
    clock ``ts`` is a cycle, ``dur`` is 0 and the ids are empty.  ``ph``
    is the Chrome-trace phase: ``"X"`` (complete span), ``"i"``
    (instant) or ``"C"`` (counter, ``attrs`` holds the values).
    """

    name: str
    cat: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    ts: int
    dur: int
    process: str
    pid: int
    tid: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    ph: str = "X"
    clock: str = "wall"

    @property
    def end(self) -> int:
        return self.ts + self.dur

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "cat": self.cat,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "ts": self.ts,
            "dur": self.dur,
            "process": self.process,
            "pid": self.pid,
            "tid": self.tid,
            "status": self.status,
        }
        if self.parent_id:
            out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = self.attrs
        # defaults stay implicit so wall-span log lines keep their shape
        if self.ph != "X":
            out["ph"] = self.ph
        if self.clock != "wall":
            out["clock"] = self.clock
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Span":
        return cls(
            name=data["name"],
            cat=data.get("cat", ""),
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            ts=int(data["ts"]),
            dur=int(data["dur"]),
            process=data.get("process", "?"),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
            attrs=data.get("attrs", {}) or {},
            status=data.get("status", "ok"),
            ph=data.get("ph", "X"),
            clock=data.get("clock", "wall"),
        )


class _ActiveSpan:
    """Context manager for an in-flight span.

    Duration comes from ``perf_counter`` (monotonic, high resolution);
    the start timestamp is stamped once from the epoch clock.  Leaving
    the block via an exception marks the span ``status="error"`` and
    re-raises.
    """

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 context: SpanContext, parent_id: Optional[str],
                 attrs: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.context = context
        self.parent_id = parent_id
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.status = "ok"
        self._ts = _now_us()
        self._t0 = time.perf_counter()

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            if exc is not None and "error" not in self.attrs:
                self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        self.finish()
        return False

    def finish(self) -> Span:
        dur_us = int((time.perf_counter() - self._t0) * 1e6)
        return self._tracer._finish(self, self._ts, dur_us)


class Tracer:
    """Thread-safe per-process span recorder with a durable JSONL log.

    Finished spans land in a bounded ring (oldest evicted, eviction
    counted) and, when ``log_dir`` is set, each is appended as it is
    recorded to a per-process ``<service>-<pid>-<nonce>.spans.jsonl``
    file.  The log file is created lazily on the first span so an idle
    tracer leaves no artifacts.
    """

    def __init__(self, service: str, log_dir: Optional[Union[str, Path]] = None,
                 capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.service = service
        self.log_dir = Path(log_dir) if log_dir is not None else None
        self.capacity = capacity
        self.dropped = 0
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._log_path: Optional[Path] = None

    @property
    def log_path(self) -> Optional[Path]:
        return self._log_path

    # -- recording ---------------------------------------------------

    def start_span(self, name: str, parent: Optional[SpanContext] = None,
                   cat: str = "job",
                   attrs: Optional[Dict[str, Any]] = None) -> _ActiveSpan:
        """Open a span; use as a context manager or call ``finish()``."""
        context = parent.child() if parent else SpanContext.mint()
        parent_id = parent.span_id if parent else None
        return _ActiveSpan(self, name, cat, context, parent_id, attrs)

    def new_context(self, parent: Optional[SpanContext] = None) -> SpanContext:
        """Mint a context without opening a span yet (pre-allocated ids
        let a span's children be recorded before the span itself)."""
        return parent.child() if parent else SpanContext.mint()

    def record_span(self, name: str, cat: str, duration_s: float,
                    parent: Optional[SpanContext] = None,
                    context: Optional[SpanContext] = None,
                    ts_us: Optional[int] = None,
                    attrs: Optional[Dict[str, Any]] = None,
                    status: str = "ok") -> Span:
        """Record an already-measured span in one call.

        ``context`` pins the span's own identity (when children were
        recorded against a pre-minted context); ``ts_us`` backdates the
        start (defaults to now - duration).
        """
        dur_us = max(0, int(duration_s * 1e6))
        if ts_us is None:
            ts_us = _now_us() - dur_us
        if context is None:
            context = parent.child() if parent else SpanContext.mint()
        return self._record(
            name=name, cat=cat, trace_id=context.trace_id,
            span_id=context.span_id,
            parent_id=parent.span_id if parent else None,
            ts=int(ts_us), dur=dur_us,
            attrs=dict(attrs) if attrs else {}, status=status)

    def sim_event(self, name: str, cat: str, ph: str, cycle: int,
                  tid: int = 0,
                  attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Record a simulated-time instant (``ph="i"``) or counter
        (``ph="C"``) stamped with ``cycle``; it joins no trace."""
        return self._record(
            name=name, cat=cat, trace_id="", span_id="", parent_id=None,
            # float(): the batched kernel hands over numpy scalars
            ts=float(cycle), dur=0, tid=tid,
            attrs=dict(attrs) if attrs else {},
            ph=ph, clock="sim")

    def _finish(self, active: _ActiveSpan, ts_us: int, dur_us: int) -> Span:
        return self._record(
            name=active.name, cat=active.cat,
            trace_id=active.context.trace_id,
            span_id=active.context.span_id, parent_id=active.parent_id,
            ts=ts_us, dur=dur_us, attrs=active.attrs, status=active.status)

    def _record(self, **fields: Any) -> Span:
        span = Span(process=self.service, pid=os.getpid(), **fields)
        with self._lock:
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(span)
            if self.log_dir is not None:
                self._append_to_log(span)
        return span

    def _append_to_log(self, span: Span) -> None:
        if self._log_path is None:
            self.log_dir.mkdir(parents=True, exist_ok=True)
            nonce = uuid.uuid4().hex[:6]
            self._log_path = self.log_dir / (
                f"{self.service}-{os.getpid()}-{nonce}.spans.jsonl"
            )
        with open(self._log_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(span.to_json_dict(), sort_keys=True)
                         + "\n")

    # -- inspection --------------------------------------------------

    def spans(self) -> List[Span]:
        """Snapshot of the in-memory ring, oldest first."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        """Empty the ring and reset the drop count."""
        with self._lock:
            self._spans.clear()
            self.dropped = 0


_PROCESS_TRACERS: Dict[Tuple[str, str], Tracer] = {}
_PROCESS_TRACERS_LOCK = threading.Lock()


def process_tracer(log_dir: Union[str, Path], service: str) -> Tracer:
    """Per-process singleton tracer keyed by (log_dir, service).

    Pool worker processes call this from pickled payloads so each
    spawned process opens exactly one span log no matter how many cells
    it simulates.
    """
    key = (str(log_dir), service)
    with _PROCESS_TRACERS_LOCK:
        tracer = _PROCESS_TRACERS.get(key)
        if tracer is None:
            tracer = Tracer(service, log_dir=log_dir)
            _PROCESS_TRACERS[key] = tracer
        return tracer


# -- collector -------------------------------------------------------


def read_span_log(path: Union[str, Path]) -> Tuple[List[Span], int]:
    """Read one span log; returns ``(spans, torn_lines)``.

    A process killed mid-append leaves a torn trailing line; readers
    count and skip malformed lines instead of failing the collection.
    """
    spans: List[Span] = []
    torn = 0
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return spans, torn
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            spans.append(Span.from_json_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError):
            torn += 1
    return spans, torn


def collect_spans(trace_dir: Union[str, Path]) -> Tuple[List[Span], int]:
    """Merge every ``*.spans.jsonl`` under ``trace_dir``, ts-sorted."""
    spans: List[Span] = []
    torn = 0
    for path in sorted(glob.glob(str(Path(trace_dir) / "*.spans.jsonl"))):
        got, bad = read_span_log(path)
        spans.extend(got)
        torn += bad
    spans.sort(key=lambda s: (s.ts, s.dur))
    return spans, torn


def align_clocks(spans: List[Span]) -> List[Span]:
    """Shift per-(process, pid) clock groups so children never start
    before their cross-process parents.

    On one host the epoch clock is shared and this is a no-op; across
    hosts (or under clock steps) each group is shifted forward by the
    largest observed ``parent.ts - child.ts`` violation on edges into
    the group.  Parents are aligned transitively root-first.
    """
    by_id = {s.span_id: s for s in spans}
    groups: Dict[Tuple[str, int], List[Span]] = {}
    for span in spans:
        groups.setdefault((span.process, span.pid), []).append(span)
    shift: Dict[Tuple[str, int], int] = {key: 0 for key in groups}
    # Iterate to a fixed point: a shifted parent can re-violate its
    # children's groups.  Bounded by group count; traces are small.
    for _ in range(len(groups) + 1):
        changed = False
        for span in spans:
            parent = by_id.get(span.parent_id) if span.parent_id else None
            if parent is None:
                continue
            child_key = (span.process, span.pid)
            parent_key = (parent.process, parent.pid)
            if child_key == parent_key:
                continue
            lag = (parent.ts + shift[parent_key]) - (span.ts + shift[child_key])
            if lag > 0:
                shift[child_key] += lag
                changed = True
        if not changed:
            break
    if all(value == 0 for value in shift.values()):
        return spans
    out: List[Span] = []
    for span in spans:
        delta = shift[(span.process, span.pid)]
        if delta:
            span = Span(**{**span.__dict__, "ts": span.ts + delta})
        out.append(span)
    out.sort(key=lambda s: (s.ts, s.dur))
    return out


def validate_trace(spans: List[Span]) -> Dict[str, List[Span]]:
    """Split ``spans`` into roots (no parent) and orphans (parent id
    set but missing from the span set)."""
    ids = {s.span_id for s in spans}
    roots = [s for s in spans if not s.parent_id]
    orphans = [s for s in spans if s.parent_id and s.parent_id not in ids]
    return {"roots": roots, "orphans": orphans}


def trace_for_job(spans: List[Span], job_id: str) -> List[Span]:
    """All spans in the trace(s) that mention ``job_id``.

    A span "mentions" the job when ``attrs.job_id`` matches; every span
    sharing a matching trace id is included so the full tree survives.
    """
    trace_ids = {
        s.trace_id for s in spans if s.attrs.get("job_id") == job_id
    }
    return [s for s in spans if s.trace_id in trace_ids]


def _chrome_tid(span: Span) -> int:
    # One lane per trace within a process so concurrent jobs don't
    # stack on a single row; +1 keeps lane 0 for metadata.
    return (int(span.trace_id[:8], 16) % 997) + 1


def spans_to_chrome(spans: List[Span]) -> dict:
    """Chrome Trace Event JSON: the one exporter of :class:`Span` data.

    Wall spans go on real OS pid lanes, their timestamps normalised to
    the earliest wall span so traces load near t=0.  Sim events go on
    one lane (pid :data:`SIM_LANE_PID`) with raw cycle timestamps, so
    viewers render cycle counts directly.  Every lane gets a
    ``process_name`` metadata event.
    """
    origin = min((s.ts for s in spans if s.clock == "wall"), default=0)
    names: Dict[int, str] = {}
    events: List[dict] = []
    for span in spans:
        if span.clock == "sim":
            pid, ts, tid = SIM_LANE_PID, span.ts, span.tid
            names.setdefault(pid, SIM_LANE_LABEL)
            args: Dict[str, Any] = dict(span.attrs)
        else:
            pid, ts, tid = span.pid, span.ts - origin, _chrome_tid(span)
            names.setdefault(pid, f"{span.process} (pid {span.pid})")
            args = {"trace_id": span.trace_id, "span_id": span.span_id}
            if span.parent_id:
                args["parent_id"] = span.parent_id
            if span.status != "ok":
                args["status"] = span.status
            args.update(span.attrs)
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.cat or "span",
            "ph": span.ph,
            "ts": ts,
        }
        if span.ph == "X":
            event["dur"] = max(span.dur, 1)
        elif span.ph == "i":
            event["s"] = "t"  # instant scope: thread
        event.update(pid=pid, tid=tid, args=args)
        events.append(event)
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
        for pid, label in sorted(names.items())
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def export_chrome_trace(spans: List[Span], path: Union[str, Path]) -> Path:
    """Write :func:`spans_to_chrome` of ``spans`` to ``path``."""
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(spans_to_chrome(spans), handle, indent=1)
    return path


@dataclass
class CriticalPath:
    """Per-category attribution of a trace's makespan (microseconds).

    ``sum(segments.values()) == total_us`` by construction: every
    interval between span boundaries is attributed to the deepest span
    covering it, and uncovered gaps count as ``idle``.
    """

    total_us: int
    segments: Dict[str, int]


def critical_path(spans: List[Span]) -> CriticalPath:
    """Deepest-covering-span attribution over the span set."""
    if not spans:
        return CriticalPath(total_us=0, segments={})
    depth: Dict[str, int] = {}
    by_id = {s.span_id: s for s in spans}

    def depth_of(span: Span) -> int:
        if span.span_id in depth:
            return depth[span.span_id]
        seen = set()
        d = 0
        node = span
        while node.parent_id and node.parent_id in by_id:
            if node.span_id in seen:  # cycle guard
                break
            seen.add(node.span_id)
            node = by_id[node.parent_id]
            d += 1
        depth[span.span_id] = d
        return d

    start = min(s.ts for s in spans)
    end = max(s.end for s in spans)
    bounds = sorted({s.ts for s in spans} | {s.end for s in spans})
    segments: Dict[str, int] = {}
    for t0, t1 in zip(bounds, bounds[1:]):
        if t1 <= t0:
            continue
        mid = (t0 + t1) / 2
        best: Optional[Span] = None
        best_depth = -1
        for span in spans:
            if span.ts <= mid < span.end:
                d = depth_of(span)
                if d > best_depth:
                    best, best_depth = span, d
        cat = best.cat if best is not None else "idle"
        segments[cat] = segments.get(cat, 0) + (t1 - t0)
    return CriticalPath(total_us=end - start, segments=segments)
