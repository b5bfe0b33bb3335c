"""Benchmark basket, load generation, and performance records.

``repro bench`` runs a fixed basket of wall-clock benchmarks (QoS-loop
and tracing overhead, parallel sweep throughput, open-loop service
load) and appends the results to ``BENCH_kernel.json`` /
``BENCH_sweep.json`` / ``BENCH_service.json`` at the repository root —
the repo's performance trajectory, versioned with the code.

``repro loadgen`` (:mod:`repro.bench.loadgen`) drives a live service
with open-loop Poisson arrivals and measures saturation throughput and
exact tail latency.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .basket import BenchContext, bench_names, run_basket
    from .loadgen import (LoadgenConfig, LoadgenReport, percentile,
                          run_loadgen, saturation_sweep)
    from .records import (BENCH_TARGETS, SCHEMA_VERSION, BenchRecord,
                          append_records, load_bench_file,
                          validate_bench_payload)

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "basket": ("BenchContext", "bench_names", "run_basket"),
    "loadgen": ("LoadgenConfig", "LoadgenReport", "percentile", "run_loadgen",
                "saturation_sweep"),
    "records": ("BENCH_TARGETS", "SCHEMA_VERSION", "BenchRecord",
                "append_records", "load_bench_file", "validate_bench_payload"),
})
