"""The telemetry hub and its zero-overhead null twin.

A :class:`Telemetry` instance owns every observable artifact of one run
or sweep: named counters / gauges / histograms, the bounded trace ring
(an in-memory :class:`~repro.obs.tracing.Tracer`), and the epoch
time-series (:class:`~repro.obs.series.TimeSeries`).  Instrumented
code receives a hub (never creates one) and records through it:

>>> hub = Telemetry()
>>> hub.counter("store.memory_hits").inc()
>>> with hub.span("simulate", cat="experiment"):
...     pass
>>> hub.counter("store.memory_hits").value
1

:class:`NullTelemetry` implements the same surface as no-ops.  It is
the default hub everywhere, which gives the *zero-perturbation
guarantee*: a run without telemetry executes the same instruction
stream the pre-telemetry code did (one attribute test or ``None`` check
on the hot path), and a run *with* telemetry only ever reads simulator
state — it never writes it — so simulation results are bit-identical
either way (``tests/obs/test_determinism.py`` enforces this).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .series import TimeSeries, series_to_dict

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "render_prometheus",
    "histogram_percentile",
]


@dataclass
class Counter:
    """A monotonically increasing named count."""

    name: str
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A named instantaneous value (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Fixed-bound bucketed distribution of observed values.

    ``bounds`` are the inclusive upper edges of each bucket; one
    overflow bucket catches everything beyond the last bound.
    """

    name: str
    bounds: Tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    observations: int = 0

    def __post_init__(self) -> None:
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.observations += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.observations if self.observations else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (0 < q <= 100) from the buckets."""
        return histogram_percentile(
            {"bounds": self.bounds, "counts": self.counts,
             "observations": self.observations}, q)


class Telemetry:
    """The live hub: counters, gauges, histograms, trace, series."""

    enabled = True

    TRACE_CAPACITY = 65536
    """Ring size of :attr:`trace`; the oldest events are dropped (and
    counted) past this bound."""

    def __init__(self) -> None:
        from .tracing import Tracer

        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.trace = Tracer("repro", capacity=self.TRACE_CAPACITY)

    # -- instruments (create-on-first-use) -----------------------------

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            if bounds is not None:
                instrument = Histogram(name, bounds=tuple(bounds))
            else:
                instrument = Histogram(name)
            self.histograms[name] = instrument
        return instrument

    def series_for(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries(name)
        return series

    # -- tracing -------------------------------------------------------

    def span(self, name: str, cat: str = "span",
             attrs: Optional[dict] = None):
        """Wall-clock span context manager (records on exit)."""
        return self.trace.start_span(name, cat=cat, attrs=attrs)

    def event(self, name: str, cat: str, ph: str, cycle: int,
              tid: int = 0, attrs: Optional[dict] = None) -> None:
        """Record a simulated-time instant (``"i"``) or counter
        (``"C"``) at ``cycle``."""
        self.trace.sim_event(name, cat, ph, cycle, tid=tid, attrs=attrs)

    # -- inspection ----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable summary of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "mean": h.mean,
                    "total": h.total,
                    "observations": h.observations,
                }
                for n, h in sorted(self.histograms.items())
            },
            "series": series_to_dict(self.series),
            "trace_events": len(self.trace),
            "trace_dropped": self.trace.dropped,
        }


def _prometheus_name(name: str) -> str:
    """Map an instrument name to a legal Prometheus metric name."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{cleaned}"


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition (v0.0.4) of a :meth:`Telemetry
    .snapshot`.

    Counters become ``repro_<name>_total``, gauges ``repro_<name>``,
    histograms the conventional ``_bucket``/``_sum``/``_count``
    triple with cumulative ``le`` buckets.  The service's ``/metrics``
    endpoint serves this under ``?format=prometheus``.
    """
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _prometheus_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = _prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    for name, hist in snapshot.get("histograms", {}).items():
        metric = _prometheus_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
        cumulative += hist["counts"][-1]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {hist['total']}")
        lines.append(f"{metric}_count {hist['observations']}")
    return "\n".join(lines) + "\n"


def histogram_percentile(hist: dict, q: float) -> float:
    """Estimated q-th percentile of a snapshot-shaped histogram.

    ``hist`` is the ``{"bounds", "counts", "observations"}`` dict a
    :meth:`Telemetry.snapshot` emits (or a live :class:`Histogram`'s
    fields).  The estimate interpolates linearly inside the bucket the
    rank lands in, treating the first bucket as spanning ``[0,
    bounds[0]]``; ranks in the overflow bucket clamp to the last bound
    (the histogram cannot know how far past it the tail reaches).
    Returns 0.0 for an empty histogram.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    bounds = list(hist["bounds"])
    counts = list(hist["counts"])
    observations = hist.get("observations") or sum(counts)
    if not observations:
        return 0.0
    rank = q / 100.0 * observations
    cumulative = 0
    for index, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= rank:
            if index >= len(bounds):  # overflow bucket: clamp
                return float(bounds[-1]) if bounds else 0.0
            low = float(bounds[index - 1]) if index else 0.0
            high = float(bounds[index])
            if not count:
                return high
            return low + (high - low) * (rank - previous) / count
    return float(bounds[-1]) if bounds else 0.0


class _NullInstrument:
    """Absorbs every instrument call; shared by all null handles."""

    __slots__ = ()
    value = 0
    total = 0.0
    observations = 0
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()
_NULL_SPAN = nullcontext()  # reusable: one shared no-op span


class NullTelemetry:
    """API-compatible no-op hub; the default everywhere.

    Shared singletons make every call allocation-free, so leaving
    instrumentation points compiled-in costs a method dispatch at most
    — and the hot simulation loop avoids even that by testing
    ``probe is not None`` once per step.
    """

    enabled = False

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, TimeSeries] = {}

    @property
    def trace(self):
        """A fresh, empty :class:`~repro.obs.tracing.Tracer`: like
        :meth:`series_for`, nothing recorded here lands anywhere, and a
        run that never reads it never imports the tracing module."""
        from .tracing import Tracer

        return Tracer("null", capacity=1)

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, bounds=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def series_for(self, name: str) -> TimeSeries:
        # a fresh throwaway series: appends land nowhere persistent
        return TimeSeries(name)

    def span(self, name: str, cat: str = "span",
             attrs: Optional[dict] = None) -> nullcontext:
        return _NULL_SPAN

    def event(self, name: str, cat: str, ph: str, cycle: int,
              tid: int = 0, attrs: Optional[dict] = None) -> None:
        pass

    def snapshot(self) -> dict:
        return {
            "counters": {}, "gauges": {}, "histograms": {},
            "series": {}, "trace_events": 0, "trace_dropped": 0,
        }


NULL_TELEMETRY = NullTelemetry()
"""The process-wide shared null hub (safe: it holds no state)."""
