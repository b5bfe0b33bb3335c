"""``repro top`` — a live plain-text dashboard over ``/metrics``.

Renders one frame of service state from a metrics payload: job
throughput with per-interval rates, latency percentiles from the
cumulative histograms, and rolling SLO gauges.  The CLI polls
``/metrics`` and redraws the frame in place; this module is pure
formatting so tests can drive it with canned snapshots.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..obs import histogram_percentile
from .report import format_table

__all__ = ["render_dashboard"]

_JOB_COUNTERS = [
    ("service.submitted", "submitted"),
    ("service.completed", "completed"),
    ("service.dedup_hits", "dedup hits"),
    ("service.coalesced", "coalesced"),
    ("service.retries", "retries"),
    ("service.quarantined", "quarantined"),
]

_LATENCY_HISTS = [
    ("service.queue_wait_seconds", "queue wait"),
    ("service.job_seconds", "job end-to-end"),
]


def _counter_rows(snapshot: Mapping, previous: Optional[Mapping],
                  interval: Optional[float]):
    counters = snapshot.get("counters", {})
    prev_counters = ((previous or {}).get("counters", {})
                     if previous is not None else None)
    rows = []
    for name, label in _JOB_COUNTERS:
        if name not in counters:
            continue
        value = counters[name]
        rate = ""
        if prev_counters is not None and interval:
            delta = value - prev_counters.get(name, 0)
            rate = f"{delta / interval:.2f}/s"
        rows.append([label, value, rate])
    return rows


def _latency_rows(snapshot: Mapping):
    histograms = snapshot.get("histograms", {})
    rows = []
    for name, label in _LATENCY_HISTS:
        hist = histograms.get(name)
        if not hist or not hist.get("observations"):
            continue
        rows.append([
            label,
            hist["observations"],
            f"{1e3 * histogram_percentile(hist, 50):.1f}ms",
            f"{1e3 * histogram_percentile(hist, 95):.1f}ms",
            f"{1e3 * histogram_percentile(hist, 99):.1f}ms",
        ])
    return rows


def _slo_rows(snapshot: Mapping):
    gauges = snapshot.get("gauges", {})
    requests = gauges.get("service.slo.window_requests")
    if not requests:
        return []
    p99 = gauges.get("service.slo.p99_seconds", 0.0)
    error_rate = gauges.get("service.slo.error_rate", 0.0)
    burn = gauges.get("service.slo.burn_rate", 0.0)
    alarm = "BURNING" if burn > 1.0 else "ok"
    return [["service", int(requests), f"{1e3 * p99:.1f}ms",
             f"{100 * error_rate:.2f}%", f"{burn:.2f}x", alarm]]


def render_dashboard(payload: Mapping, healthz: Optional[Mapping] = None,
                     previous: Optional[Mapping] = None,
                     interval: Optional[float] = None) -> str:
    """One dashboard frame, as a printable string.

    ``payload`` is the JSON body of ``/metrics``; ``previous`` is the
    prior frame's payload, used with ``interval`` (seconds) to print
    per-interval rates.
    """
    sections = []

    headline = []
    if healthz:
        status = healthz.get("status", "?")
        uptime = healthz.get("uptime_s")
        headline.append(f"service: {status}"
                        + (f", up {uptime:.0f}s" if uptime else ""))
        if "jobs" in healthz:
            headline.append(f"jobs {healthz['jobs']}")
    depth = payload.get("gauges", {}).get("service.queue_depth")
    if depth is not None:
        headline.append(f"queue depth {int(depth)}")
    if headline:
        sections.append("  |  ".join(headline))

    rows = _counter_rows(payload, previous, interval)
    if rows:
        sections.append(format_table(["Jobs", "Total", "Rate"], rows))

    rows = _latency_rows(payload)
    if rows:
        sections.append(format_table(
            ["Latency", "Obs", "p50", "p95", "p99"], rows))

    rows = _slo_rows(payload)
    if rows:
        sections.append(format_table(
            ["SLO (rolling window)", "Req", "p99", "Errors", "Burn",
             "State"], rows))

    if not sections:
        sections.append("(no metrics yet)")
    return "\n\n".join(sections)
