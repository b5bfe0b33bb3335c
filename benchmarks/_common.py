"""Shared infrastructure for the table/figure reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs
the experiments, renders the same rows/series the paper reports, prints
them, and asserts the paper's qualitative shape.  At the size and seed
the checked-in tables were made at (12000 refs, seed 1) it also writes
them to ``benchmarks/results/<name>.txt``; any other run only prints,
so a quick low-refs run cannot overwrite them.

Environment knobs
-----------------
``REPRO_REFS``
    Measured references per thread (default 12000 for benches — enough
    for stable shapes at the default 1/16 scale; raise it for smoother
    curves).
``REPRO_SEED``
    Base seed (default 1).
``REPRO_JOBS``
    Worker processes for grid helpers (default 1 = serial).
``REPRO_STORE``
    Directory for a persistent result store.  When set, every
    experiment the benches run is written there and re-runs (across
    processes and sessions) simulate nothing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.executor import SweepExecutor
from repro.core.experiment import (ExperimentResult, ExperimentSpec,
                                   resolve_mix, run_experiment)
from repro.core.metrics import VMMetrics
from repro.core.store import ResultStore, set_default_store

#: the run size and seed of the checked-in benchmarks/results/ tables
RESULTS_REFS = 12000
RESULTS_SEED = 1

BENCH_REFS = int(os.environ.get("REPRO_REFS", str(RESULTS_REFS)))
BENCH_WARMUP = BENCH_REFS // 2
BENCH_SEED = int(os.environ.get("REPRO_SEED", str(RESULTS_SEED)))
BENCH_JOBS = int(os.environ.get("REPRO_JOBS", "1"))

if os.environ.get("REPRO_STORE"):
    # Give the whole bench session a persistent default store: every
    # run_experiment call (direct or via the executor) reads and
    # feeds the same disk tier.
    set_default_store(ResultStore(os.environ["REPRO_STORE"]))

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: canonical paper display names
PRETTY = {"tpcw": "TPC-W", "tpch": "TPC-H", "specjbb": "SPECjbb",
          "specweb": "SPECweb"}

#: the four sharing configurations of Figures 2-3, paper labels
ISOLATION_SHARINGS = [("shared", "shared"), ("shared-8", "2-LL$"),
                      ("shared-4", "4-LL$"), ("private", "private")]

HOMOGENEOUS = [("mixA", "tpcw"), ("mixB", "tpch"), ("mixC", "specjbb"),
               ("mixD", "specweb")]

HETEROGENEOUS = [f"mix{i}" for i in range(1, 10)]

POLICIES = ["rr", "affinity", "rr-aff", "random"]


def spec(mix: str, sharing: str = "shared-4", policy: str = "affinity",
         **overrides) -> ExperimentSpec:
    params = dict(mix=mix, sharing=sharing, policy=policy, seed=BENCH_SEED,
                  measured_refs=BENCH_REFS, warmup_refs=BENCH_WARMUP)
    params.update(overrides)
    return ExperimentSpec(**params)


def run(mix: str, sharing: str = "shared-4", policy: str = "affinity",
        **overrides) -> ExperimentResult:
    return run_experiment(spec(mix, sharing, policy, **overrides))


def run_grid(cells: List[tuple]) -> Dict[tuple, ExperimentResult]:
    """Run many ``(key, spec)`` cells through the sweep executor.

    Honours ``REPRO_JOBS`` (parallel fan-out) and the session store; a
    cell failure raises after the whole grid has been attempted, so one
    bad configuration doesn't waste the rest of an expensive grid.
    """
    from repro.errors import SweepError

    with SweepExecutor(jobs=BENCH_JOBS) as executor:
        outcomes = executor.run(cells)
    failures = {o.key: o.error for o in outcomes if not o.ok}
    if failures:
        raise SweepError(failures)
    return {o.key: o.result for o in outcomes}


def isolation_baseline(workload: str, sharing: str = "shared",
                       policy: str = "affinity") -> VMMetrics:
    """The paper's normalization run: one instance, 16 MB fully shared
    (or the stated sharing), affinity."""
    return run(f"iso-{workload}", sharing=sharing, policy=policy).vm_metrics[0]


def staggered(mix: str, cycles: int) -> str:
    """The ``vm_schedule`` that starts VM ``i`` of ``mix`` at cycle
    ``i * cycles`` (empty for 0: every VM starts together)."""
    if not cycles:
        return ""
    vms = resolve_mix(mix).num_instances
    return ",".join(str(vm * cycles) for vm in range(vms))


def mean(values: List[float]) -> float:
    return sum(values) / len(values)


def workload_means(result: ExperimentResult) -> Dict[str, Dict[str, float]]:
    """Per-workload instance-averaged raw metrics of one run."""
    out: Dict[str, Dict[str, float]] = {}
    for workload in dict.fromkeys(result.workloads):
        vms = result.metrics_for(workload)
        out[workload] = {
            "cycles": mean([vm.cycles for vm in vms]),
            "miss_rate": mean([vm.miss_rate for vm in vms]),
            "miss_latency": mean([vm.mean_miss_latency for vm in vms]),
        }
    return out


def emit(name: str, text: str) -> Optional[Path]:
    """Print a rendered table; persist it under benchmarks/results/ only
    when the run matches the checked-in tables' size and seed."""
    print()
    print(text)
    if (BENCH_REFS, BENCH_SEED) != (RESULTS_REFS, RESULTS_SEED):
        return None
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def once(benchmark, fn):
    """Run a figure-regeneration exactly once under pytest-benchmark.

    The experiment cache makes repeated rounds meaningless (they would
    time dict lookups), so every bench uses a single round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
