"""The fixed benchmark basket.

A small registry of the wall-clock measurements ``perfbench/`` does
not take: the overhead of the cache-QoS control loop and of
distributed tracing, sweep throughput at N worker processes, and the
service's open-loop load response.  Cold cells, scorecards (with their
control hooks) and closed-loop service latency are perfbench's.

``run_basket`` executes a selection and returns
:class:`~repro.bench.records.BenchRecord` rows; the CLI appends them
to ``BENCH_kernel.json`` / ``BENCH_sweep.json`` /
``BENCH_service.json`` at the repository root (each record's
``target`` picks its file).  Every benchmark is deterministic in its
simulation inputs — only the wall-clock readings vary between hosts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from ..core.experiment import ExperimentSpec, run_experiment
from ..core.store import ResultStore
from ..errors import ReproError
from .records import BenchRecord

__all__ = ["BenchContext", "bench_names", "run_basket"]


@dataclass
class BenchContext:
    """Knobs shared by every benchmark in a basket run."""

    quick: bool = False
    seed: int = 1
    jobs: int = 2
    refs: Optional[int] = None  # None = per-bench default

    def cell_refs(self, full: int, quick: int) -> int:
        if self.refs is not None:
            return self.refs
        return quick if self.quick else full


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _spec(ctx: BenchContext, refs: int, **overrides) -> ExperimentSpec:
    params = dict(mix="mix1", seed=ctx.seed, measured_refs=refs,
                  warmup_refs=refs // 2)
    params.update(overrides)
    return ExperimentSpec(**params)


# ----------------------------------------------------------------------
# kernel basket
# ----------------------------------------------------------------------


def _same_simulation(plain, controlled, what: str) -> None:
    """Raise unless two results serialize identically (spec and mix
    label aside): an overhead ratio is only a cost when both sides ran
    the same simulation."""
    import json

    from ..core.store import result_to_dict

    def canonical(result) -> str:
        payload = result_to_dict(result)
        payload.pop("spec")
        payload["mix"] = {k: v for k, v in (payload.get("mix") or {}).items()
                          if k != "name"}
        return json.dumps(payload, sort_keys=True)

    if canonical(plain) != canonical(controlled):
        raise ReproError(f"{what} changed the simulation: the paired "
                         f"results are not byte-identical")


def _timed_pair(plain: ExperimentSpec, controlled: ExperimentSpec,
                what: str) -> List[float]:
    """Cold seconds of both specs, once they prove to simulate the
    same thing."""
    runs, seconds = [], []
    for spec in (plain, controlled):
        start = time.perf_counter()
        runs.append(run_experiment(spec, use_cache=False))
        seconds.append(time.perf_counter() - start)
    _same_simulation(*runs, what)
    return seconds


def _bench_qos_overhead(ctx: BenchContext) -> List[BenchRecord]:
    """Wall-clock cost of the QoS control loop.

    ``static-equal`` keeps its setup-time split, so it simulates the
    same thing at any control epoch (``tests/qos/test_determinism.py``):
    against an epoch longer than the run, which never closes a control
    window, the time difference is the sense/decide/actuate loop alone.
    """
    refs = ctx.cell_refs(full=1500, quick=300)
    qos = _spec(ctx, refs, mix="mix7", sharing="shared",
                engine_mode="reference", qos_policy="static-equal",
                qos_epoch=10_000)
    base = replace(qos, qos_epoch=1 << 62)
    t_base, t_qos = _timed_pair(base, qos, "the QoS loop")
    return [BenchRecord(
        bench="qos-overhead", target="kernel", quick=ctx.quick,
        params={"mix": base.mix, "measured_refs": refs,
                "policy": "static-equal", "seed": ctx.seed},
        metrics={
            "plain_seconds": t_base,
            "qos_seconds": t_qos,
            "overhead_ratio": t_qos / max(1e-9, t_base),
        },
    )]


def _bench_obs_tracing(ctx: BenchContext) -> List[BenchRecord]:
    """Distributed-tracing overhead guard.

    Runs the same grid through :class:`SweepExecutor` with tracing off
    and on.  The cold pass proves the spans never perturb simulation
    output (byte-identical serialized results — a hard failure if
    not); the warm pass times pure executor overhead on store hits,
    where span bookkeeping is the only extra work.
    """
    import json
    import tempfile

    from ..core.executor import SweepExecutor
    from ..core.store import result_to_dict
    from ..obs.tracing import Tracer

    refs = ctx.cell_refs(full=800, quick=300)
    specs = [
        _spec(ctx, refs, sharing=sharing, policy=policy,
              engine_mode="batched")
        for sharing in ("shared-2", "shared-4")
        for policy in ("rr", "affinity")
    ]
    cells = [((spec.sharing, spec.policy), spec) for spec in specs]

    def grid(tracer) -> tuple:
        store = ResultStore()
        executor = SweepExecutor(jobs=1, store=store, tracer=tracer)
        executor.run(cells)  # cold: simulate and fill the store
        warm = _timed(lambda: executor.run(cells))  # warm: store hits
        blobs = [json.dumps(result_to_dict(store.get(spec)),
                            sort_keys=True) for spec in specs]
        return warm, blobs

    off_s, off_blobs = grid(None)
    with tempfile.TemporaryDirectory() as td:
        tracer = Tracer("bench", log_dir=td)
        on_s, on_blobs = grid(tracer)
        spans = len(tracer.spans())
    if off_blobs != on_blobs:
        raise ReproError(
            "tracing perturbed simulation output: results with the "
            "tracer enabled are not byte-identical")

    # warm service round-trip with and without span logging: the
    # end-to-end figure the CI overhead guard holds to within 5%
    from ..service import ServiceClient, ServiceServer

    repeats = 5 if ctx.quick else 15
    rt_spec = specs[0]

    def roundtrip_ms(trace_dir) -> float:
        server = ServiceServer(port=0, trace_dir=trace_dir)
        server.start_in_thread()
        try:
            with ServiceClient(
                    f"http://{server.host}:{server.port}") as client:
                job = client.submit([rt_spec])  # warm the store
                client.wait(job["job_id"], timeout=120.0)

                def once():
                    handle = client.submit([rt_spec])
                    client.wait(handle["job_id"], timeout=120.0)

                times = sorted(_timed(once) for _ in range(repeats))
            return 1000.0 * times[len(times) // 2]  # median
        finally:
            server.shutdown()

    rt_off = roundtrip_ms(None)
    with tempfile.TemporaryDirectory() as td:
        rt_on = roundtrip_ms(td)

    return [BenchRecord(
        bench="obs-tracing", target="kernel", quick=ctx.quick,
        params={"mix": "mix1", "measured_refs": refs,
                "cells": len(cells), "seed": ctx.seed},
        metrics={
            "off_ms": 1000.0 * off_s,
            "on_ms": 1000.0 * on_s,
            "overhead_ratio": on_s / max(1e-9, off_s),
            "roundtrip_off_ms": rt_off,
            "roundtrip_on_ms": rt_on,
            "roundtrip_overhead_ratio": rt_on / max(1e-9, rt_off),
            "byte_identical": 1.0,
            "spans": float(spans),
        },
    )]


# ----------------------------------------------------------------------
# sweep / service basket
# ----------------------------------------------------------------------


def _bench_sweep_throughput(ctx: BenchContext) -> List[BenchRecord]:
    """Cold sweep throughput (cells/sec) at N worker processes."""
    from ..core.executor import SweepExecutor

    refs = ctx.cell_refs(full=1200, quick=300)
    sharings = ("shared-2", "shared-4")
    policies = ("rr", "affinity")
    specs = [
        _spec(ctx, refs, sharing=sharing, policy=policy,
              engine_mode="batched")
        for sharing in sharings for policy in policies
    ]
    jobs = 1 if ctx.quick else ctx.jobs
    executor = SweepExecutor(jobs=jobs, store=ResultStore())
    cells = [((spec.sharing, spec.policy), spec) for spec in specs]
    elapsed = _timed(lambda: executor.run(cells))
    return [BenchRecord(
        bench="sweep-throughput", target="sweep", quick=ctx.quick,
        params={"mix": "mix1", "measured_refs": refs, "jobs": jobs,
                "cells": len(specs), "seed": ctx.seed},
        metrics={
            "seconds": elapsed,
            "cells_per_sec": len(specs) / max(1e-9, elapsed),
        },
    )]


def _bench_service_loadgen(ctx: BenchContext) -> List[BenchRecord]:
    """Open-loop Poisson load against a single in-process worker."""
    from ..service import ServiceServer
    from .loadgen import LoadgenConfig, run_loadgen

    refs = ctx.cell_refs(full=600, quick=300)
    server = ServiceServer(port=0, concurrency=2).start_in_thread()
    try:
        config = LoadgenConfig(
            url=f"http://{server.host}:{server.port}",
            rate=5.0 if ctx.quick else 20.0,
            duration=2.0 if ctx.quick else 5.0,
            warm_fraction=0.8,
            pool=4,
            refs=refs,
            seed=ctx.seed,
        )
        report = run_loadgen(config)
    finally:
        server.shutdown()
    return [report.to_record(quick=ctx.quick,
                             extra_params={"workers": 1})]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_BASKET: Dict[str, Callable[[BenchContext], List[BenchRecord]]] = {
    "qos-overhead": _bench_qos_overhead,
    "obs-tracing": _bench_obs_tracing,
    "sweep-throughput": _bench_sweep_throughput,
    "service-loadgen": _bench_service_loadgen,
}


def bench_names() -> List[str]:
    return list(_BASKET)


def run_basket(names: Optional[List[str]] = None,
               ctx: Optional[BenchContext] = None,
               progress=None) -> List[BenchRecord]:
    """Run the selected benchmarks (default: the whole basket)."""
    ctx = ctx or BenchContext()
    selected = names or bench_names()
    unknown = [n for n in selected if n not in _BASKET]
    if unknown:
        raise ReproError(
            f"unknown benchmark(s) {', '.join(unknown)}; "
            f"available: {', '.join(bench_names())}"
        )
    records: List[BenchRecord] = []
    for name in selected:
        if progress is not None:
            progress(name)
        records.extend(_BASKET[name](ctx))
    return records
