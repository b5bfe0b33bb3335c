"""Command-line interface.

``python -m repro <command>`` drives the library without writing code:

``run``
    One consolidation experiment; prints the per-VM metric table and
    optionally saves the full result as JSON.  ``--telemetry``
    ``--epoch N`` additionally samples per-VM time series every N
    simulated cycles and prints a phase timeline.
``sweep``
    A sharing-degree x scheduling-policy sweep for one mix; ``--jobs N``
    fans the grid out over worker processes and ``--store PATH`` keeps a
    persistent result store so re-runs simulate nothing.
    ``--telemetry`` records executor spans and store counters;
    ``--epoch N`` epoch-samples every cold cell into store sidecars.
``qos``
    One experiment under a dynamic cache-QoS policy (``--policy ucp``,
    ``--policy target-slowdown --target 1.3``, ...) with a scorecard:
    per-VM slowdown, weighted/harmonic speedup, fairness, violations.
``sched``
    Compare scheduling policies on one mix (the paper's static
    placements vs. the adaptive policies of :mod:`repro.sched`), with
    per-policy weighted/harmonic speedup, fairness, and migration
    counts plus a best-static vs. best-adaptive verdict; takes the
    heterogeneity / over-commit / churn shape flags.
``scenario``
    The ``sched`` scorecard under a time-varying consolidation scenario
    (``--list`` shows the registry, ``--file`` loads a JSON one).
``suite``
    Run a canned experiment suite by name (``repro suite list`` shows
    the registry); takes the same ``--jobs`` / ``--store`` flags.
``trace``
    Merge one service job's span logs (``--job ID --trace-dir DIR``)
    into a distributed trace: its critical path and a Chrome-trace
    JSON (loadable in Perfetto / ``chrome://tracing``).  An
    experiment's own trace comes from ``run --epoch N --trace-out``.
``profile``
    Run a suite with wall-clock executor spans and export the Chrome
    trace of where the sweep spent its time.
``serve``
    Run the long-lived simulation service: an HTTP job API over a
    shared result store with a durable job journal (see
    ``docs/service.md``); ``--jobs N`` runs every job's cells in one
    pool of N processes, and ``--concurrency`` (default N) jobs at once.
``submit``
    Submit an experiment grid to a running service (and optionally
    wait for the results).
``jobs``
    List a running service's jobs, or show one job's record.
``top``
    Live dashboard over a running service's ``/metrics``.
``loadgen``
    Open-loop Poisson load generation against a running service:
    offered-rate sweep, exact p50/p95/p99 latency, records appended
    to ``BENCH_service.json``.
``bench``
    Run the fixed benchmark basket and append machine-readable
    records to ``BENCH_kernel.json`` / ``BENCH_sweep.json`` /
    ``BENCH_service.json`` (the repo-root performance trajectory);
    ``--quick`` runs a seconds-long CI-sized basket.
``stats``
    The Table II characterization of one workload.
``workloads``
    The workload registry (Table I prose + model parameters).
``mixes``
    The Table IV mix matrix.
``compare``
    Compare two saved result JSON files (per-VM cycles, miss-rate and
    miss-latency ratios).

Run sizes and seeds are explicit flags (``--refs``, ``--seed``); the
old ``REPRO_REFS`` / ``REPRO_SEED`` environment knobs were removed
and now raise a configuration error when set; a zero or negative
``--refs`` (or negative ``--warmup``) is refused.  ``run`` and
``sweep`` take ``--engine`` to pick the kernel (``auto``, the
default, ``reference``, ``batched`` — see ``docs/engines.md``); the
other simulation commands run the spec default, ``reference``.
Telemetry never changes simulation results (see
``docs/observability.md``).

Exit codes are uniform across commands: ``0`` success, ``2`` library
error (bad configuration, failed sweep cells, service rejection),
``3`` I/O error (unreadable/unwritable files, unreachable service),
``130`` interrupted.  Argparse keeps its own ``2`` for usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.report import format_kv, format_series, format_table
from .core.experiment import (ALL_POLICIES, ALL_SHARINGS, DEFAULT_SCALE,
                              ExperimentSpec, run_experiment)
from .core.isolation import normalize_result
from .core.mixes import MIXES
from .errors import ReproError
from .workloads.calibrate import measure_workload_statistics
from .workloads.library import WORKLOADS

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_ERROR", "EXIT_IO",
           "EXIT_INTERRUPTED"]

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130

# Every flag that sets an ExperimentSpec field, declared once:
# flag -> (spec field, add_argument keywords).  Commands pick theirs
# through _add_spec_flags and build specs through _spec_from_args.
_SPEC_FLAGS = {
    "--mix": ("mix", dict(
        default="mix5", help="Table IV mix name or iso-<workload>")),
    "--sharing": ("sharing", dict(
        default="shared-4", choices=ALL_SHARINGS,
        help="L2 sharing degree (default: %(default)s)")),
    "--policy": ("policy", dict(
        default="affinity", choices=ALL_POLICIES,
        help="thread placement policy (default: %(default)s)")),
    "--refs": ("measured_refs", dict(
        type=int, default=None, help="measured references per thread")),
    "--warmup": ("warmup_refs", dict(
        type=int, default=None,
        help="warm-up references per thread (default: half of --refs)")),
    "--seed": ("seed", dict(
        type=int, default=0, help="experiment seed (0 = built-in seed)")),
    "--scale": ("scale", dict(
        type=float, default=DEFAULT_SCALE,
        help="capacity/footprint scale (default 1/16)")),
    "--cores": ("num_cores", dict(type=int, default=16)),
    "--slots-per-core": ("slots_per_core", dict(
        type=int, default=1,
        help="run-queue slots per core (default: %(default)s); >1 "
             "over-commits cores (Section VII study)")),
    "--rebind": ("rebind", dict(
        default="", choices=("", "random", "affinity"),
        help="dynamic thread rebinding policy")),
    "--rebind-interval": ("rebind_interval", dict(type=int, default=100_000)),
    "--phase-plan": ("phase_plan", dict(
        default="", help="named workload phase plan (e.g. 'burst')")),
    "--qos-policy": ("qos_policy", dict(
        default="", help="QoS controller: static-equal, missrate-prop, "
                         "ucp, or target-slowdown (empty = off)")),
    "--qos-target": ("qos_target", dict(
        type=float, default=0.0,
        help="slowdown ceiling for target-slowdown (e.g. 1.3)")),
    "--qos-epoch": ("qos_epoch", dict(
        type=int, default=10_000,
        help="QoS control period in simulated cycles")),
    "--sched-policy": ("sched_policy", dict(
        default="", help="adaptive scheduling policy (static, "
                         "contention, adaptive, hetero); empty = off")),
    "--sched-epoch": ("sched_epoch", dict(
        type=int, default=10_000,
        help="scheduling control period in cycles")),
    "--core-speeds": ("core_speeds", dict(
        default="", help="per-core speed classes, e.g. '1.0x8,0.5x8' "
                         "(empty = homogeneous)")),
    "--l2-asym": ("l2_asym", dict(
        default="", help="per-domain L2 associativities, e.g. "
                         "'16x2,8x2' (empty = uniform)")),
    "--vm-schedule": ("vm_schedule", dict(
        default="", help="per-VM start[:stop] cycles, comma-separated "
                         "(VM churn; empty = none)")),
    "--engine": ("engine_mode", dict(
        default="auto", choices=("auto", "reference", "batched"),
        help="simulation kernel: 'reference' is the event-driven model, "
             "'batched' the epoch-folded fast path, 'auto' picks batched "
             "when the run shape allows (see docs/engines.md)")),
}


def _add_spec_flags(parser, *flags: str, **defaults) -> None:
    """Declare ``flags`` (keys of :data:`_SPEC_FLAGS`) on ``parser``.

    ``"--sched=--policy"`` declares ``--sched`` with the ``--policy``
    entry's field and keywords.  ``defaults``, keyed by dest, override
    the table's defaults.  The parser records the spec field of each
    dest for :func:`_spec_from_args`.
    """
    fields = {}
    for flag in flags:
        option, _, entry = flag.partition("=")
        field, kwargs = _SPEC_FLAGS[entry or option]
        dest = option[2:].replace("-", "_")
        if dest in defaults:
            kwargs = {**kwargs, "default": defaults[dest]}
        parser.add_argument(option, **kwargs)
        fields[dest] = field
    parser.set_defaults(spec_fields=fields)


def _spec_from_args(args, **fixed) -> ExperimentSpec:
    """The spec a command's spec flags describe; ``fixed`` sets the
    fields the command supplies itself."""
    fields = {field: getattr(args, dest)
              for dest, field in args.spec_fields.items()}
    return ExperimentSpec(**{**fields, **fixed})


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Server-consolidation CMP simulator "
            "(IISWC 2007 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one consolidation experiment")
    _add_spec_flags(run_p, *_SPEC_FLAGS)
    run_p.add_argument("--normalize", action="store_true",
                       help="also print paper-style normalized metrics "
                            "(runs the isolation baselines)")
    run_p.add_argument("--output", default=None,
                       help="save the full result as JSON")
    _add_telemetry_flags(run_p)
    run_p.add_argument("--series-out", default=None, metavar="PATH",
                       help="save the sampled time series as JSON")

    sweep_p = sub.add_parser(
        "sweep", help="sharing-degree x policy sweep for one mix")
    _add_spec_flags(sweep_p, "--mix", "--refs", "--seed", "--engine",
                    "--qos-policy", "--qos-target", "--qos-epoch",
                    "--sched-policy", "--sched-epoch", "--core-speeds",
                    "--l2-asym", "--vm-schedule", mix="iso-tpch")
    sweep_p.add_argument("--metric", default="cycles",
                         choices=("cycles", "miss_rate", "miss_latency"))
    _add_executor_flags(sweep_p)
    _add_telemetry_flags(sweep_p)

    qos_p = sub.add_parser(
        "qos", help="run one experiment under a cache-QoS policy and "
                    "print its scorecard")
    _add_spec_flags(qos_p, "--policy=--qos-policy", "--mix", "--sharing",
                    "--sched=--policy", "--target=--qos-target",
                    "--qos-epoch", "--refs", "--warmup", "--seed",
                    "--slots-per-core",
                    policy="ucp", mix="mix7", sharing="shared")
    qos_p.add_argument("--baseline", action="store_true",
                       help="also run the uncontrolled shared-L2 run "
                            "and print the comparison")
    qos_p.add_argument("--json", default=None, metavar="PATH",
                       help="save the scorecard as JSON")

    sched_p = sub.add_parser(
        "sched", help="compare scheduling policies (static placements "
                      "vs. adaptive) on one mix")
    sched_p.add_argument("--policies", default="static,contention,adaptive",
                         help="comma-separated scheduling policies; "
                              "'static' expands to one cell per "
                              "placement policy")
    _add_spec_flags(sched_p, "--mix", "--placement=--policy", "--sharing",
                    "--sched-epoch", "--core-speeds", "--l2-asym",
                    "--vm-schedule", "--cores", "--slots-per-core",
                    "--refs", "--warmup", "--seed",
                    mix="mix7", sharing="shared")
    sched_p.add_argument("--json", default=None, metavar="PATH",
                         help="save the comparison + verdict as JSON")
    sched_p.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="write the accumulated sched.* telemetry "
                              "counters in Prometheus text format")

    scn_p = sub.add_parser(
        "scenario", help="run a time-varying consolidation scenario and "
                         "score policies against it")
    scn_p.add_argument("name", nargs="?", default=None,
                       help="scenario name (see --list), or omit with "
                            "--file / --list / --calibrate")
    scn_p.add_argument("--list", action="store_true", dest="list_scenarios",
                       help="list registered scenarios and exit")
    scn_p.add_argument("--calibrate", action="store_true",
                       help="print the Table-II-style calibration table "
                            "for the scenario workload families and exit")
    scn_p.add_argument("--file", default=None, metavar="PATH",
                       help="load a JSON scenario file (registers it "
                            "under its own name)")
    scn_p.add_argument("--export", default=None, metavar="PATH",
                       help="write the selected scenario as JSON and exit")
    scn_p.add_argument("--policies", default="static,contention,adaptive",
                       help="comma-separated scheduling policies; "
                            "'static' expands to one cell per "
                            "placement policy")
    # consolidation scenarios over-commit the machine; --slots-per-core 1
    # is the paper's one-thread-per-core shape
    _add_spec_flags(scn_p, "--placement=--policy", "--sharing",
                    "--slots-per-core", "--sched-epoch", "--cores",
                    "--refs", "--warmup", "--seed", slots_per_core=2)
    scn_p.add_argument("--windows", action="store_true",
                       help="also print the per-window load/issued "
                            "attribution of the first adaptive cell")
    scn_p.add_argument("--json", default=None, metavar="PATH",
                       help="save the scorecard + verdict as JSON")
    scn_p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the accumulated scenario.*/sched.* "
                            "telemetry counters in Prometheus text "
                            "format")

    suite_p = sub.add_parser(
        "suite", help="run a canned experiment suite by name")
    suite_p.add_argument("name",
                         help="registry name (use 'list' to see them)")
    _add_spec_flags(suite_p, "--mix", "--refs", "--seed")
    suite_p.add_argument("--mixes", default=None,
                         help="comma-separated mixes for the 'mixes' suite")
    suite_p.add_argument("--metric", default="cycles",
                         choices=("cycles", "miss_rate", "miss_latency"))
    _add_executor_flags(suite_p)

    trace_p = sub.add_parser(
        "trace", help="collect a distributed job trace from span logs "
                      "and export it as a Chrome trace")
    trace_p.add_argument("--job", required=True, metavar="JOB_ID",
                         help="the job whose trace to collect")
    trace_p.add_argument("--trace-dir", required=True, metavar="DIR",
                         help="span-log directory written by a traced "
                              "serve")
    trace_p.add_argument("--out", default="trace.json", metavar="PATH",
                         help="Chrome-trace JSON output path")

    profile_p = sub.add_parser(
        "profile", help="run a suite with wall-clock spans and export "
                        "the executor's Chrome trace")
    profile_p.add_argument("name", nargs="?", default="sharing-policy",
                           help="suite registry name (default "
                                "sharing-policy)")
    _add_spec_flags(profile_p, "--mix", "--refs", "--seed")
    profile_p.add_argument("--mixes", default=None,
                           help="comma-separated mixes for the 'mixes' "
                                "suite")
    profile_p.add_argument("--epoch", type=int, default=0,
                           help="also epoch-sample every cold cell "
                                "(0 = off)")
    profile_p.add_argument("--out", default="profile.json", metavar="PATH",
                           help="Chrome-trace JSON output path")
    _add_executor_flags(profile_p)

    serve_p = sub.add_parser(
        "serve", help="run the long-lived simulation service "
                      "(HTTP job API; see docs/service.md)")
    _add_service_flags(serve_p)
    serve_p.add_argument("--journal", default=None, metavar="PATH",
                         help="durable job journal; jobs survive "
                              "restarts and crashes")

    top_p = sub.add_parser(
        "top", help="live dashboard over a running service's /metrics "
                    "(htop-style, refreshes in place)")
    top_p.add_argument("--url", default="http://127.0.0.1:8765",
                       help="service base URL")
    top_p.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes")
    top_p.add_argument("--count", type=int, default=0,
                       help="exit after N refreshes (0 = until Ctrl-C)")
    top_p.add_argument("--no-clear", action="store_true",
                       help="append frames instead of clearing the "
                            "screen (for logs/CI)")

    submit_p = sub.add_parser(
        "submit", help="submit an experiment grid to a running service")
    submit_p.add_argument("--url", default="http://127.0.0.1:8765",
                          help="service base URL")
    _add_spec_flags(submit_p, "--mix", "--refs", "--warmup", "--seed")
    submit_p.add_argument("--sharings", default="shared-4",
                          help="comma-separated sharing degrees "
                               "(grid axis)")
    submit_p.add_argument("--policies", default="affinity",
                          help="comma-separated scheduling policies "
                               "(grid axis)")
    submit_p.add_argument("--priority", type=int, default=10,
                          help="lower runs sooner")
    submit_p.add_argument("--client-id", default="cli",
                          help="client identity for rate limiting")
    submit_p.add_argument("--wait", action="store_true",
                          help="poll until the job finishes and print "
                               "its result keys")
    submit_p.add_argument("--timeout", type=float, default=600.0,
                          help="--wait timeout in seconds")
    submit_p.add_argument("--busy-timeout", type=float, default=0.0,
                          help="keep retrying through 429 responses "
                               "for this many seconds")

    jobs_p = sub.add_parser(
        "jobs", help="list a running service's jobs (or show one)")
    jobs_p.add_argument("job_id", nargs="?", default=None,
                        help="job id for a detailed record")
    jobs_p.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL")

    loadgen_p = sub.add_parser(
        "loadgen", help="open-loop Poisson load against a running "
                        "service; appends BENCH_service.json")
    loadgen_p.add_argument("--url", default="http://127.0.0.1:8765",
                           help="service base URL")
    loadgen_p.add_argument("--rate", type=float, default=20.0,
                           help="offered arrivals/second (single run)")
    loadgen_p.add_argument("--rates", default=None, metavar="R1,R2,...",
                           help="comma-separated saturation sweep "
                                "(overrides --rate)")
    loadgen_p.add_argument("--duration", type=float, default=5.0,
                           help="arrival window per run, seconds")
    loadgen_p.add_argument("--warm-fraction", type=float, default=0.5,
                           help="share of arrivals from the warm pool")
    loadgen_p.add_argument("--pool", type=int, default=8,
                           help="distinct pre-primed warm specs")
    loadgen_p.add_argument("--refs", type=int, default=300,
                           help="measured references per generated cell")
    loadgen_p.add_argument("--seed", type=int, default=1)
    loadgen_p.add_argument("--timeout", type=float, default=120.0,
                           help="per-job completion timeout, seconds")
    loadgen_p.add_argument("--out-dir", default=".", metavar="DIR",
                           help="where BENCH_service.json lives "
                                "(default: cwd)")
    loadgen_p.add_argument("--dry-run", action="store_true",
                           help="print reports without writing records")

    bench_p = sub.add_parser(
        "bench", help="run the benchmark basket and append records to "
                      "BENCH_kernel.json / BENCH_sweep.json / "
                      "BENCH_service.json")
    bench_p.add_argument("--quick", action="store_true",
                         help="seconds-long CI basket (small runs)")
    bench_p.add_argument("--only", action="append", default=None,
                         metavar="NAME",
                         help="run one benchmark (repeatable); "
                              "'list' prints the basket")
    bench_p.add_argument("--refs", type=int, default=None,
                         help="override every benchmark's run size")
    bench_p.add_argument("--seed", type=int, default=1)
    bench_p.add_argument("--jobs", type=int, default=2,
                         help="worker processes for the sweep benchmark")
    bench_p.add_argument("--out-dir", default=".", metavar="DIR",
                         help="where BENCH_*.json live (default: cwd)")
    bench_p.add_argument("--dry-run", action="store_true",
                         help="print records without writing files")

    stats_p = sub.add_parser(
        "stats", help="Table II characterization of one workload")
    stats_p.add_argument("workload", choices=sorted(WORKLOADS))
    stats_p.add_argument("--refs", type=int, default=None)
    stats_p.add_argument("--seed", type=int, default=0)

    compare_p = sub.add_parser(
        "compare", help="compare two saved result JSON files (b vs a)")
    compare_p.add_argument("result_a")
    compare_p.add_argument("result_b")

    sub.add_parser("workloads", help="list workload profiles")
    sub.add_parser("mixes", help="list Table IV mixes")
    return parser


def _add_executor_flags(parser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial, the default)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="persistent result-store directory; warm "
                             "cells are never re-simulated")
    parser.add_argument("--progress", action="store_true",
                        help="print per-cell progress to stderr")


def _add_service_flags(parser) -> None:
    """Flags of ``serve``."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765,
                        help="bind port (0 picks a free one)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="persistent result-store directory "
                             "(default: memory-only)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="simulation processes shared by every job "
                             "(1 = cells run in the server process)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="jobs executed at once (default: --jobs)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="pending jobs admitted before 429 "
                             "backpressure")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="per-client requests/second "
                             "(0 = unlimited)")
    parser.add_argument("--burst", type=int, default=20,
                        help="per-client burst size for --rate")
    parser.add_argument("--behind-proxy", action="store_true",
                        help="trust X-Client-Id/X-Forwarded-For for "
                             "rate-limit identity (only safe when "
                             "every peer is a trusted proxy)")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="job attempts before quarantine")
    parser.add_argument("--backoff", type=float, default=0.5,
                        help="base retry backoff in seconds")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write distributed-tracing span logs here "
                             "(default: tracing off)")


def _add_telemetry_flags(parser) -> None:
    parser.add_argument("--telemetry", action="store_true",
                        help="enable the telemetry hub (counters, "
                             "spans, event tracing); simulation "
                             "results are unaffected")
    parser.add_argument("--epoch", type=int, default=0, metavar="N",
                        help="sample per-VM time series every N "
                             "simulated cycles (implies --telemetry)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export recorded events as Chrome-trace "
                             "JSON (Perfetto-loadable)")


def _make_telemetry(args):
    """A live hub when any telemetry flag was given, else ``None``."""
    epoch = getattr(args, "epoch", 0)
    if not (getattr(args, "telemetry", False) or epoch
            or getattr(args, "trace_out", None)):
        return None
    from .obs import Telemetry

    return Telemetry()


def _make_executor(args, telemetry=None) -> "SweepExecutor":
    from .core.executor import SweepExecutor
    from .core.store import ResultStore

    store = (ResultStore(args.store, telemetry=telemetry)
             if args.store else None)

    def report(done, total, outcome):
        status = ("cached" if outcome.from_cache
                  else "failed" if not outcome.ok
                  else f"{outcome.wall_time:.1f}s")
        print(f"[{done}/{total}] {outcome.key} {status}", file=sys.stderr)

    return SweepExecutor(jobs=args.jobs, store=store,
                         progress=report if args.progress else None,
                         telemetry=telemetry,
                         epoch=getattr(args, "epoch", 0),
                         tracer=(telemetry.trace if telemetry is not None
                                 else None))


def _metric_row(vms, metric: str) -> float:
    if metric == "cycles":
        return sum(vm.cycles for vm in vms) / len(vms)
    if metric == "miss_rate":
        return sum(vm.miss_rate for vm in vms) / len(vms)
    return sum(vm.mean_miss_latency for vm in vms) / len(vms)


def _write_trace(telemetry, path) -> None:
    from .obs import export_chrome_trace

    out = export_chrome_trace(telemetry.trace.spans(), path)
    dropped = telemetry.trace.dropped
    note = f" ({dropped} oldest events dropped)" if dropped else ""
    print(f"chrome trace written to {out}{note} — load it at "
          f"https://ui.perfetto.dev or chrome://tracing")


def _save_json(payload, path, what: str) -> None:
    import json

    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    print(f"\n{what} saved to {path}")


def _cmd_run(args) -> int:
    spec = _spec_from_args(args)
    telemetry = _make_telemetry(args)
    result = run_experiment(spec, telemetry=telemetry, epoch=args.epoch)
    rows = []
    normalized = normalize_result(result) if args.normalize else None
    for index, vm in enumerate(result.vm_metrics):
        row = [f"vm{vm.vm_id}", vm.workload, vm.cycles,
               round(vm.miss_rate, 4), round(vm.mean_miss_latency, 1),
               f"{100 * vm.c2c_fraction:.0f}%"]
        if normalized is not None:
            row += [round(normalized[index].runtime, 3),
                    round(normalized[index].miss_latency, 3)]
        rows.append(row)
    headers = ["VM", "Workload", "Cycles", "Miss rate", "Miss latency",
               "c2c"]
    if normalized is not None:
        headers += ["Norm. runtime", "Norm. miss latency"]
    print(format_table(headers, rows,
                       title=f"{spec.mix} / {spec.sharing} / {spec.policy}"))
    summary = result.chip_summary
    print()
    print(format_kv("Chip summary", {
        "mesh mean latency": f"{summary.mesh_mean_latency:.1f} cyc",
        "mesh queueing": f"{summary.mesh_mean_queueing:.1f} cyc",
        "memory reads": summary.memory_reads,
        "memory writebacks": summary.memory_writebacks,
        "upgrades": summary.upgrades,
        "intra-domain transfers": summary.intra_domain_transfers,
        "directory cache hit rate":
            f"{100 * summary.directory_cache_hit_rate:.1f}%",
    }))
    if result.qos:
        print()
        print(format_kv("QoS", {
            "policy": result.qos.get("policy"),
            "control epochs": result.qos.get("control_epochs", 0),
            "quota adjustments": result.qos.get("quota_adjustments", 0),
            "rebinds": result.qos.get("rebinds", 0),
        }))
    if result.sched:
        print()
        print(format_kv("Scheduling", {
            "policy": result.sched.get("policy"),
            "control epochs": result.sched.get("control_epochs", 0),
            "migrations": result.sched.get("migrations", 0),
            "proposed": result.sched.get("proposed", 0),
            "refused": result.sched.get("refused", 0),
        }))
    if result.series is not None:
        from .analysis.timeline import timeline_report

        print()
        print(timeline_report(result.series))
    if args.series_out:
        _save_json(result.series or {}, args.series_out, "time series")
    if telemetry is not None and args.trace_out:
        print()
        _write_trace(telemetry, args.trace_out)
    if args.output:
        from .analysis.persist import save_result

        path = save_result(result, args.output)
        print(f"\nresult saved to {path}")
    return 0


def _cmd_sweep(args) -> int:
    from .core.suite import SuiteRunner, sharing_policy_suite

    telemetry = _make_telemetry(args)
    suite = sharing_policy_suite(args.mix, policies=ALL_POLICIES,
                                 base=_spec_from_args(args))
    with _make_executor(args, telemetry) as executor:
        outcome = SuiteRunner(executor).run(suite)
    _raise_on_failures(outcome)
    series = {}
    for sharing in ALL_SHARINGS:
        series[sharing] = {
            policy: _metric_row(outcome.result(sharing, policy).vm_metrics,
                                args.metric)
            for policy in ALL_POLICIES
        }
    print(format_series(f"{args.mix}: {args.metric} sweep", series))
    if telemetry is not None:
        counters = telemetry.snapshot()["counters"]
        print()
        print(format_kv("Telemetry", {
            "cells simulated": counters.get("executor.simulated", 0),
            "store hits": (counters.get("store.memory_hits", 0)
                           + counters.get("store.disk_hits", 0)),
            "store misses": counters.get("store.misses", 0),
            "trace events": len(telemetry.trace),
        }))
        if args.trace_out:
            print()
            _write_trace(telemetry, args.trace_out)
    return 0


def _cmd_qos(args) -> int:
    from .qos import qos_report

    spec = _spec_from_args(args)
    # bypass the cache: the controller's live account (result.qos) is
    # not part of the serialized result, so a cache hit would lose it
    result = run_experiment(spec, use_cache=False)
    report = qos_report(result)

    headers = ["VM", "Workload", "Slowdown"]
    if report.target > 0:
        headers.append("Target")
    rows = [[row[0], row[1], round(row[2], 3)] + row[3:]
            for row in report.rows()]
    print(format_table(
        headers, rows,
        title=f"QoS {args.policy}: {spec.mix} / {spec.sharing}"))
    control = report.control
    scorecard = {
        **_speedup_lines(report),
        "control epochs": control.get("control_epochs", 0),
        "quota adjustments": control.get("quota_adjustments", 0),
        "rebinds": control.get("rebinds", 0),
    }
    if report.target > 0:
        scorecard["target"] = report.target
        scorecard["violation epochs"] = report.violation_epochs
        scorecard["VMs over target"] = (
            ", ".join(f"vm{v}" for v in report.violating_vms) or "none"
        )
    for domain, quotas in sorted((control.get("final_quotas") or {}).items()):
        scorecard[f"domain {domain} ways"] = ", ".join(
            f"vm{vm}:{ways}"
            for vm, ways in sorted(quotas.items(), key=lambda kv: int(kv[0]))
        )
    print()
    print(format_kv("Scorecard", scorecard))

    if args.baseline:
        from dataclasses import replace

        base_spec = replace(spec, qos_policy="", qos_target=0.0)
        base_report = qos_report(run_experiment(base_spec))
        print()
        print(format_kv("Uncontrolled baseline", _speedup_lines(base_report)))
    if args.json:
        _save_json(report.to_dict(), args.json, "scorecard")
    return 0


def _speedup_lines(report) -> dict:
    """The four scorecard metrics of one :class:`QosReport`, formatted
    for :func:`format_kv`."""
    return {
        "weighted speedup": f"{report.weighted_speedup:.3f}",
        "harmonic speedup": f"{report.harmonic_speedup:.3f}",
        "fairness (Jain)": f"{report.fairness:.3f}",
        "max slowdown": f"{report.max_slowdown:.3f}",
    }


def _policy_list(args) -> tuple:
    """The ``--policies`` comma list of ``sched`` and ``scenario``."""
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    if not policies:
        raise ReproError("--policies names no scheduling policy")
    return policies


def _print_policy_scorecard(args, compare, title: str, payload: dict,
                            saved: str) -> None:
    """Run ``compare(use_cache=, telemetry=)`` and print its table and
    verdict, plus ``--windows``, ``--metrics-out`` and ``--json``."""
    from .analysis.sched_report import sched_table, sched_verdict
    from .obs import Telemetry

    telemetry = Telemetry() if args.metrics_out else None
    # bypass the cache: the live sched/scenario accounts are not part
    # of the serialized result, so a cache hit would lose them
    reports = compare(use_cache=False, telemetry=telemetry)
    headers, rows = sched_table(reports)
    print(format_table(headers, rows, title=title))
    verdict = sched_verdict(reports)
    if "best_static" in verdict and "best_adaptive" in verdict:
        print()
        print(format_kv("Verdict", {
            "best static": f"{verdict['best_static']} "
                           f"({verdict['best_static_weighted_speedup']:.3f})",
            "best adaptive":
                f"{verdict['best_adaptive']} "
                f"({verdict['best_adaptive_weighted_speedup']:.3f})",
            "speedup gain": f"{verdict['speedup_gain']:+.3f}",
            "fairness change": f"{verdict['fairness_change']:+.3f}",
            "adaptive wins": "yes" if verdict["adaptive_wins"] else "no",
        }))
    if getattr(args, "windows", False):
        from .analysis.scenario_report import scenario_window_rows

        shown = next(
            (r for label, r in reports.items()
             if not label.startswith("static")),
            next(iter(reports.values())),
        )
        w_headers, w_rows = scenario_window_rows(shown.control)
        if w_rows:
            print()
            print(format_table(
                w_headers, w_rows,
                title=f"Windows ({shown.policy} cell)"))
    if args.metrics_out:
        from .obs import render_prometheus

        with open(args.metrics_out, "w") as handle:
            handle.write(render_prometheus(telemetry.snapshot()))
        print(f"\nmetrics written to {args.metrics_out}")
    if args.json:
        _save_json({**payload,
                    "policies": {label: report.to_dict()
                                 for label, report in reports.items()},
                    "verdict": verdict}, args.json, saved)


def _cmd_sched(args) -> int:
    from functools import partial

    from .analysis.sched_report import compare_sched_policies

    policies = _policy_list(args)
    shape = [f"{args.cores} cores"]
    if args.slots_per_core > 1:
        shape.append(f"x{args.slots_per_core} slots")
    if args.core_speeds:
        shape.append(f"speeds {args.core_speeds}")
    if args.l2_asym:
        shape.append(f"L2 {args.l2_asym}")
    if args.vm_schedule:
        shape.append("churn")
    _print_policy_scorecard(
        args,
        partial(compare_sched_policies, args.mix, policies=policies,
                base=_spec_from_args(args)),
        title=f"Scheduling: {args.mix} / {args.sharing} "
              f"({', '.join(shape)})",
        payload={"mix": args.mix}, saved="comparison")
    return 0


def _cmd_scenario(args) -> int:
    from functools import partial

    from .analysis.scenario_report import compare_scenario_policies
    from .scenarios import (
        get_scenario,
        load_scenario_file,
        save_scenario_file,
        scenario_names,
    )

    if args.list_scenarios:
        from .scenarios import BUILTIN_SCENARIOS

        rows = []
        for name in scenario_names():
            scenario = get_scenario(name)
            kind = "built-in" if name in BUILTIN_SCENARIOS else "custom"
            rows.append([name, kind, len(scenario.roster),
                         scenario.curve.kind, scenario.description])
        print(format_table(
            ["Scenario", "Kind", "VMs", "Curve", "Description"], rows,
            title="Registered scenarios"))
        return 0
    if args.calibrate:
        from .workloads import SCENARIO_WORKLOADS, calibration_table

        print(calibration_table(sorted(SCENARIO_WORKLOADS),
                                measured_refs=args.refs, seed=args.seed or 1))
        return 0

    if args.file:
        scenario = load_scenario_file(args.file)
        if args.name and args.name != scenario.name:
            raise ReproError(
                f"--file defines scenario {scenario.name!r}, "
                f"not {args.name!r}")
    elif args.name:
        scenario = get_scenario(args.name)
    else:
        raise ReproError("name a scenario (see --list) or pass --file")

    if args.export:
        save_scenario_file(scenario, args.export)
        print(f"scenario {scenario.name!r} written to {args.export}")
        return 0

    policies = _policy_list(args)
    slots = args.slots_per_core
    if scenario.has_arrivals and slots > 1:
        # over-commit honours start times only for run-queue heads, so
        # arrival scenarios run on the paper's one-thread-per-core shape
        print(f"note: {scenario.name!r} scripts VM arrivals; "
              "running single-slot")
        slots = 1
    base = _spec_from_args(args, mix=scenario.mix_name,
                           slots_per_core=slots)
    _print_policy_scorecard(
        args,
        partial(compare_scenario_policies, scenario.name,
                policies=policies, base=base),
        title=f"Scenario: {scenario.name} / {args.sharing} "
              f"({args.cores} cores x {slots} slots, "
              f"curve {scenario.curve.kind}, epoch {scenario.epoch})",
        payload={"scenario": scenario.name, "curve": scenario.curve.kind},
        saved="scorecard")
    return 0


def _cmd_trace(args) -> int:
    """``repro trace --job ID``: merge span logs into one job trace."""
    from .obs import (CATEGORY_LABELS, align_clocks, collect_spans,
                      critical_path, export_chrome_trace, trace_for_job,
                      validate_trace)

    spans, torn = collect_spans(args.trace_dir)
    if not spans:
        raise ReproError(f"no span logs under {args.trace_dir}")
    if torn:
        print(f"warning: skipped {torn} torn span-log line(s)",
              file=sys.stderr)
    spans = align_clocks(spans)
    job_spans = trace_for_job(spans, args.job)
    if not job_spans:
        raise ReproError(f"no spans mention job {args.job!r}; is the "
                         f"trace directory right and the job finished?")
    report = validate_trace(job_spans)
    path = critical_path(job_spans)
    total_s = path.total_us / 1e6
    rows = []
    for cat, micros in sorted(path.segments.items(),
                              key=lambda kv: -kv[1]):
        label = CATEGORY_LABELS.get(cat, cat)
        share = 100.0 * micros / path.total_us if path.total_us else 0.0
        rows.append([label, f"{micros / 1e6:.3f}s", f"{share:.1f}%"])
    print(format_table(["Segment", "Time", "Share"], rows,
                       title=f"Job {args.job}: critical path "
                             f"({total_s:.3f}s end to end)"))
    print()
    processes = sorted({(s.process, s.pid) for s in job_spans})
    print(f"{len(job_spans)} spans across {len(processes)} process(es): "
          + ", ".join(f"{name} (pid {pid})" for name, pid in processes))
    for root in report["roots"]:
        print(f"root span: {root.name} @ {root.process}")
    export_chrome_trace(job_spans, args.out)
    print(f"Chrome trace saved to {args.out} "
          f"(open in Perfetto / chrome://tracing)")
    if report["orphans"]:
        names = ", ".join(s.name for s in report["orphans"])
        print(f"error: {len(report['orphans'])} orphan span(s) with a "
              f"missing parent: {names}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _cmd_profile(args) -> int:
    from .core.suite import SuiteRunner
    from .obs import Telemetry

    telemetry = Telemetry()
    suite = _suite_from_args(args)
    with _make_executor(args, telemetry) as executor:
        outcome = SuiteRunner(executor).run(suite)
    _raise_on_failures(outcome)
    rows = [
        [" / ".join(str(v) for v in key),
         "cached" if cell.from_cache else f"{cell.wall_time:.2f}s"]
        for key, cell in outcome.outcomes.items()
    ]
    print(format_table(
        ["Cell (" + " x ".join(suite.axis_names) + ")", "wall time"],
        rows, title=f"Profile: suite {suite.name}"))
    print()
    counters = telemetry.snapshot()["counters"]
    hist = telemetry.histograms.get("executor.cell_seconds")
    print(format_kv("Executor", {
        "cells": len(outcome.outcomes),
        "simulated": counters.get("executor.simulated", 0),
        "cached": outcome.cached_cells,
        "failures": counters.get("executor.failures", 0),
        "mean cell time": f"{hist.mean:.2f}s" if hist else "n/a",
        "total simulation time": f"{outcome.total_wall_time:.1f}s",
    }))
    print()
    _write_trace(telemetry, args.out)
    return 0


def _raise_on_failures(outcome) -> None:
    from .errors import SweepError

    if outcome.failures:
        raise SweepError(outcome.failures)


def _suite_from_args(args):
    """The canned suite ``suite`` and ``profile`` name, with a base
    spec only when a run size or seed was given."""
    from .core.suite import get_suite

    params = {}
    if args.name == "mixes":
        if args.mixes:
            params["mixes"] = [m.strip() for m in args.mixes.split(",")]
    else:
        params["mix"] = args.mix
    if args.refs is not None or args.seed:
        params["base"] = _spec_from_args(args)
    return get_suite(args.name, **params)


def _cmd_suite(args) -> int:
    from .core.suite import SuiteRunner, get_suite, suite_names

    if args.name == "list":
        rows = [[name, get_suite(name).description]
                for name in suite_names()]
        print(format_table(["Suite", "Description"], rows,
                           title="Canned suites"))
        return 0

    suite = _suite_from_args(args)
    with _make_executor(args) as executor:
        outcome = SuiteRunner(executor).run(suite)
    _raise_on_failures(outcome)
    rows = [
        [" / ".join(str(v) for v in key),
         round(_metric_row(result.vm_metrics, args.metric), 4)]
        for key, result in outcome.results.items()
    ]
    print(format_table(
        ["Cell (" + " x ".join(suite.axis_names) + ")", args.metric],
        rows, title=f"Suite {suite.name}"))
    print()
    print(f"{len(outcome.results)} cells "
          f"({outcome.cached_cells} cached), "
          f"simulation wall time {outcome.total_wall_time:.1f}s")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .service import ServiceServer

    server = ServiceServer(
        store=args.store, journal=args.journal, host=args.host,
        port=args.port, queue_limit=args.queue_limit, rate=args.rate,
        burst=args.burst, trust_proxy_headers=args.behind_proxy,
        executor_jobs=args.jobs, concurrency=args.concurrency,
        max_attempts=args.max_attempts, backoff_base=args.backoff,
        trace_dir=args.trace_dir)

    async def _serve() -> None:
        await server.start()
        print(f"repro service listening on "
              f"http://{server.host}:{server.port}", file=sys.stderr)
        where = repr(server.store)
        journal = args.journal or "none (volatile queue)"
        print(f"store: {where}; journal: {journal}", file=sys.stderr)
        if server.queue.recovered:
            print(f"recovered {server.queue.recovered} journaled job(s)",
                  file=sys.stderr)
        await server.serve()
        print("drained; bye", file=sys.stderr)

    asyncio.run(_serve())
    return EXIT_OK


def _cmd_top(args) -> int:
    import time as _time

    from .analysis.top import render_dashboard
    from .service import ServiceClient

    with ServiceClient(args.url) as client:
        previous = None
        frame = 0
        while True:
            payload = client.metrics()
            try:
                healthz = client.healthz()
            except Exception:
                healthz = None
            text = render_dashboard(
                payload, healthz=healthz, previous=previous,
                interval=args.interval if previous is not None else None)
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            stamp = _time.strftime("%H:%M:%S")
            print(f"repro top — {args.url} — {stamp} "
                  f"(refresh {args.interval:g}s)")
            print()
            print(text, flush=True)
            previous = payload
            frame += 1
            if args.count and frame >= args.count:
                return EXIT_OK
            _time.sleep(args.interval)


def _cmd_loadgen(args) -> int:
    from .bench import append_records
    from .bench.loadgen import LoadgenConfig, run_loadgen, saturation_sweep

    base = LoadgenConfig(
        url=args.url, rate=args.rate, duration=args.duration,
        warm_fraction=args.warm_fraction, pool=args.pool,
        refs=args.refs, seed=args.seed, timeout=args.timeout,
    )

    def announce(config):
        print(f"loadgen: {config.rate:g} jobs/s for "
              f"{config.duration:g}s against {config.url} ...",
              file=sys.stderr)

    if args.rates:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
        reports = saturation_sweep(args.url, rates, base=base,
                                   progress=announce)
    else:
        announce(base)
        reports = [run_loadgen(base)]
    rows = []
    for report in reports:
        metrics = report.metrics()
        rows.append([
            f"{metrics['offered_rate']:g}",
            f"{metrics['achieved_jobs_per_sec']:.2f}",
            int(metrics["completed"]), int(metrics["shed"]),
            int(metrics["failed"]),
            f"{metrics['p50_ms']:.1f}", f"{metrics['p95_ms']:.1f}",
            f"{metrics['p99_ms']:.1f}",
            "yes" if report.sustained else "no",
        ])
    print(format_table(
        ["Offered/s", "Achieved/s", "Done", "Shed", "Failed",
         "p50 ms", "p95 ms", "p99 ms", "Sustained"],
        rows, title=f"Open-loop load against {args.url}"))
    best = max(r.achieved_rate for r in reports)
    print(f"\npeak achieved throughput: {best:.2f} jobs/s")
    if args.dry_run:
        print("dry run: no records written")
        return EXIT_OK
    records = [r.to_record(extra_params={"url": args.url})
               for r in reports]
    for path in append_records(args.out_dir, records):
        print(f"appended to {path}")
    return EXIT_OK


def _submit_cells(args):
    sharings = [s.strip() for s in args.sharings.split(",") if s.strip()]
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    keys = [(sharing, policy) for sharing in sharings for policy in policies]
    return keys, [_spec_from_args(args, sharing=sharing, policy=policy)
                  for sharing, policy in keys]


def _cmd_submit(args) -> int:
    from .service import JobState, ServiceClient

    with ServiceClient(args.url, client_id=args.client_id,
                       busy_timeout=args.busy_timeout) as client:
        keys, specs = _submit_cells(args)
        job = client.submit(specs, priority=args.priority, keys=keys)
        print(f"job {job['job_id']}: {job['state']} "
              f"({job['cells']} cells, priority {job['priority']})")
        if not args.wait:
            return EXIT_OK
        job = client.wait(job["job_id"], timeout=args.timeout)
    if job["state"] != JobState.DONE:
        print(f"job {job['job_id']} {job['state']}: {job.get('error')}",
              file=sys.stderr)
        return EXIT_ERROR
    rows = [[" / ".join(str(v) for v in key), result_key]
            for key, result_key in zip(keys, job["result_keys"])]
    print(format_table(["Cell", "Result key"], rows,
                       title=f"Job {job['job_id']} done"))
    print()
    print(f"{job['cells_cached']} cells cached, "
          f"{job['cells_simulated']} simulated, "
          f"attempt(s) {job['attempts']}")
    return EXIT_OK


def _cmd_jobs(args) -> int:
    from .service import ServiceClient

    with ServiceClient(args.url) as client:
        if args.job_id:
            job = client.job(args.job_id)
        else:
            jobs = client.jobs()
    if args.job_id:
        print(format_kv(f"Job {job['job_id']}", {
            "state": job["state"],
            "client": job["client"],
            "priority": job["priority"],
            "attempts": job["attempts"],
            "cells": len(job["cells"]),
            "coalesced with": job.get("coalesced_with") or "-",
            "error": job.get("error") or "-",
            "result keys": ", ".join(job["result_keys"]) or "-",
        }))
        return EXIT_OK
    rows = [
        [job["job_id"], job["state"], job["cells"], job["attempts"],
         job["client"]]
        for job in jobs
    ]
    print(format_table(["Job", "State", "Cells", "Attempts", "Client"],
                       rows, title=f"Jobs at {args.url}"))
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import BenchContext, append_records, bench_names, run_basket

    if args.only and "list" in args.only:
        rows = [[name] for name in bench_names()]
        print(format_table(["Benchmark"], rows, title="Bench basket"))
        return EXIT_OK
    ctx = BenchContext(quick=args.quick, seed=args.seed, jobs=args.jobs,
                       refs=args.refs)
    records = run_basket(
        args.only, ctx,
        progress=lambda name: print(f"bench: {name} ...", file=sys.stderr),
    )
    rows = [
        [record.bench, record.target,
         ", ".join(f"{k}={v:.4g}" for k, v in record.metrics.items())]
        for record in records
    ]
    title = "Bench basket (quick)" if args.quick else "Bench basket"
    print(format_table(["Benchmark", "File", "Metrics"], rows, title=title))
    if args.dry_run:
        print("\ndry run: no records written")
        return EXIT_OK
    written = append_records(args.out_dir, records)
    print()
    for path in written:
        print(f"appended to {path}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    stats = measure_workload_statistics(args.workload,
                                        measured_refs=args.refs,
                                        seed=args.seed)
    print(format_kv(f"Table II statistics: {args.workload}", {
        "c2c fraction of misses": f"{100 * stats.c2c_fraction:.1f}%",
        "clean transfers": f"{100 * stats.clean_fraction:.1f}%",
        "dirty transfers": f"{100 * stats.dirty_fraction:.1f}%",
        "blocks touched (scaled run)": f"{stats.blocks_touched:,}",
        "blocks touched (full-scale equiv)":
            f"{stats.blocks_touched_fullscale:,}",
        "L2 miss rate": f"{stats.l2_miss_rate:.3f}",
    }))
    return 0


def _cmd_workloads(_args) -> int:
    rows = []
    for name in sorted(WORKLOADS):
        profile = WORKLOADS[name]
        rows.append([
            name, profile.footprint_blocks, profile.threads,
            profile.p_shared_read, profile.p_migratory,
            profile.description,
        ])
    print(format_table(
        ["Name", "Footprint (blocks)", "Threads", "p(shared)", "p(migratory)",
         "Description"], rows, title="Workload registry"))
    return 0


def _cmd_mixes(_args) -> int:
    rows = [[name, MIXES[name].describe()] for name in sorted(MIXES)]
    print(format_table(["Mix", "Composition"], rows,
                       title="Table IV mixes"))
    return 0


def _cmd_compare(args) -> int:
    from .analysis.compare import compare_results
    from .analysis.persist import load_result

    a = load_result(args.result_a)
    b = load_result(args.result_b)
    comparison = compare_results(a, b, label_a=args.result_a,
                                 label_b=args.result_b)
    print(format_table(
        ["VM", "cycles x", "miss-rate x", "miss-latency x"],
        comparison.rows(),
        title=f"{args.result_b} relative to {args.result_a}"))
    worst = comparison.worst_vm()
    print()
    print(f"mean cycles ratio {comparison.mean_cycles_ratio():.3f}; "
          f"most affected: {worst.workload} "
          f"({worst.cycles_ratio:.3f}x)")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "qos": _cmd_qos,
    "sched": _cmd_sched,
    "scenario": _cmd_scenario,
    "suite": _cmd_suite,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "top": _cmd_top,
    "loadgen": _cmd_loadgen,
    "bench": _cmd_bench,
    "stats": _cmd_stats,
    "compare": _cmd_compare,
    "workloads": _cmd_workloads,
    "mixes": _cmd_mixes,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a uniform exit code, never raises.

    ``EXIT_ERROR`` (2) for any :class:`ReproError` (configuration
    mistakes, failed sweep cells, service rejections), ``EXIT_IO``
    (3) for OS-level failures (missing files, unreachable hosts), and
    ``EXIT_INTERRUPTED`` (130) for Ctrl-C, so scripts and CI can
    branch on *why* a command failed instead of parsing stderr.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # output truncated by a downstream pager/head; not an error
        return EXIT_OK
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
