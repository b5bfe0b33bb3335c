"""Run one workload of the repository benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-cell --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``latency_ms``, the
operation latency, and ``setup_s``, the median time a fresh
interpreter takes to import the package and make the workload ready);
with ``--trace 1`` they are the per-layer host-time shares of the
timed window and a few work counts (see ``perfbench/README.md``).

The benchmark drives the ``repro`` package in ``src/`` of the checkout
it sits in and exits with status 2 when there is none.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
SETUP_TIMEOUT = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="make the workload ready, then exit (the "
                             "set-up probe)")
    return parser.parse_args(argv)


def setup_seconds(args) -> float:
    """Median host-speed-scaled wall time of fresh interpreters that
    only import the package and set the workload up."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    speed = HostSpeed()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT)
        speed.record("setup", time.perf_counter() - start)
        speed.checkpoint(force=True)
    return statistics.median(speed.scaled["setup"])


def layer_metrics(clock, wall: float, workload) -> dict:
    from layers import LAYERS

    busy = clock.busy()
    calls = clock.calls()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_pct"] = {
            "value": 100.0 * busy.get(layer, 0.0) / wall, "unit": "%"}
    accounted = sum(busy.get(layer, 0.0) for layer in LAYERS)
    metrics["other_pct"] = {
        "value": max(0.0, 100.0 * (wall - accounted) / wall), "unit": "%"}
    metrics["gc_pct"] = {"value": 100.0 * clock.gc_seconds / wall, "unit": "%"}
    waits = sum(getattr(workload, "queue_waits", ()))
    metrics["queue_wait_pct"] = {
        "value": 100.0 * waits / workload.job_seconds if waits else 0.0,
        "unit": "%"}
    for name, layer in (("cells", "engine"), ("control_calls", "control"),
                        ("store_calls", "store"),
                        ("http_requests", "route")):
        metrics[name] = {"value": calls.get(layer, 0), "unit": "count"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Ops

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        try:
            workload.setup()
        finally:
            workload.close()
        return 0

    setup_s = None if args.trace else setup_seconds(args)
    ops = Ops()
    clock = None
    try:
        workload.setup()
        if args.trace:
            from layers import LayerClock, instrument

            clock = LayerClock()
            instrument(clock)
            if hasattr(workload, "trace_queue_waits"):
                workload.trace_queue_waits()
        try:
            speed = HostSpeed()
            calibrating = speed.spent
            start = time.perf_counter()
            measured = workload.run(args.seconds, ops, speed)
            # layer shares are of the window's time outside calibration
            wall = time.perf_counter() - start - (speed.spent - calibrating)
        finally:
            if clock is not None:
                clock.restore()
        verify_errors = workload.verify()
    finally:
        workload.close()

    for error in (ops.errors + verify_errors)[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(clock, wall, workload)
    else:
        metrics = {
            "latency_ms": {"value": measured["latency_ms"], "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({
        "correct": ops.failed == 0 and not verify_errors,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
