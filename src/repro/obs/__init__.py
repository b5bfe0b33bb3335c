"""repro.obs — run-time telemetry: probes, tracing, and exporters.

The observability layer of the simulator.  It is strictly additive:
with the default :data:`~repro.obs.telemetry.NULL_TELEMETRY` hub no
series, events, or counters are recorded and the simulation executes
exactly as before; with a live :class:`~repro.obs.telemetry.Telemetry`
hub the engine samples epoch time-series into the hub's one trace ring
(a :class:`~repro.obs.tracing.Tracer`), and everything exports to
Chrome-trace JSON (loadable in Perfetto).  See ``docs/observability.md``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .probes import Delta, EpochProbe, SensingWindow, Sensor
    from .series import TimeSeries, series_from_dict, series_to_dict
    from .slo import SloTracker
    from .telemetry import (NULL_TELEMETRY, Counter, Gauge, Histogram,
                            NullTelemetry, Telemetry, histogram_percentile,
                            render_prometheus)
    from .tracing import (CATEGORY_LABELS, TRACEPARENT_HEADER, CriticalPath,
                          Span, SpanContext, Tracer, align_clocks,
                          collect_spans, critical_path, export_chrome_trace,
                          process_tracer, spans_to_chrome, trace_for_job,
                          validate_trace)

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "probes": ("Delta", "EpochProbe", "SensingWindow", "Sensor"),
    "series": ("TimeSeries", "series_from_dict", "series_to_dict"),
    "slo": ("SloTracker",),
    "telemetry": ("NULL_TELEMETRY", "Counter", "Gauge", "Histogram",
                  "NullTelemetry", "Telemetry", "histogram_percentile",
                  "render_prometheus"),
    "tracing": ("CATEGORY_LABELS", "TRACEPARENT_HEADER", "CriticalPath",
                "Span", "SpanContext", "Tracer", "align_clocks",
                "collect_spans", "critical_path", "export_chrome_trace",
                "process_tracer", "spans_to_chrome", "trace_for_job",
                "validate_trace"),
})
