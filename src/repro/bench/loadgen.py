"""Open-loop Poisson load generator for the service tier.

Measures what the closed-loop basket benchmarks cannot: how the
service (single worker or fleet) behaves under *offered* load.  A
closed-loop client waits for each response before sending the next
request, so it can never observe queueing collapse — its arrival rate
falls as the system slows.  This generator is open-loop: arrivals are
a Poisson process at a configured target rate regardless of how the
service is doing, which is how saturation, queue growth and tail
latency actually present in production (Schroeder et al., "Open
Versus Closed").

One run (:func:`run_loadgen`) submits jobs with exponential
inter-arrival times for a fixed window, mixing *warm* submissions
(drawn from a small pool of pre-primed specs — pure dedup round-trips)
with *cold* ones (unique seeds — every job simulates), then long-polls
each job to completion (``GET /jobs/<id>?wait=S``, so a latency is not
rounded up to a poll interval), fetches its stored results (``GET
/results/<key>``) and reports exact p50/p95/p99 end-to-end latency —
submit to the last result in hand — and achieved throughput.
:func:`saturation_sweep` steps the offered rate upward and flags the last rate the service
*sustained* (achieved within 10% of offered), which is the capacity
number the fleet acceptance criteria compare across worker counts.

Everything is seeded (:class:`random.Random`) so two runs against
equally-warm services offer byte-identical workloads.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError, ServiceError
from ..service.httpcommon import MAX_JOB_WAIT, RETRY_PAUSE, fetch, job_path
from .records import BenchRecord

__all__ = [
    "LoadgenConfig",
    "LoadgenReport",
    "percentile",
    "run_loadgen",
    "saturation_sweep",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Exact q-th percentile (0 < q <= 100), linear interpolation.

    Unlike :func:`~repro.obs.telemetry.histogram_percentile` this
    works on the raw sample list, so loadgen reports are not quantized
    by histogram bucket edges.
    """
    if not 0 < q <= 100:
        raise ReproError(f"percentile must be in (0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def _host_port(url: str) -> Tuple[str, int]:
    stripped = url.strip()
    for prefix in ("http://", "https://"):
        if stripped.startswith(prefix):
            stripped = stripped[len(prefix):]
    stripped = stripped.rstrip("/")
    host, _, port = stripped.partition(":")
    if not host or not port.isdigit():
        raise ReproError(
            f"loadgen URL must look like http://host:port, got {url!r}")
    return host, int(port)


@dataclass
class LoadgenConfig:
    """One open-loop run's knobs."""

    url: str
    rate: float = 20.0          # offered arrivals per second (Poisson)
    duration: float = 5.0       # arrival window, seconds
    warm_fraction: float = 0.5  # share of arrivals from the warm pool
    pool: int = 8               # distinct pre-primed warm specs
    refs: int = 300             # measured_refs of every generated spec
    seed: int = 1
    priority: int = 10
    timeout: float = 120.0      # per-job completion timeout
    max_inflight: int = 512     # open-loop memory bound, not pacing
    prime: bool = True          # pre-run the warm pool before timing

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ReproError(f"rate must be > 0, got {self.rate}")
        if self.duration <= 0:
            raise ReproError(
                f"duration must be > 0, got {self.duration}")
        if not 0.0 <= self.warm_fraction <= 1.0:
            raise ReproError(
                "warm_fraction must be within [0, 1], got "
                f"{self.warm_fraction}")
        if self.pool < 1:
            raise ReproError(f"pool must be >= 1, got {self.pool}")


@dataclass
class _Outcome:
    """One submitted job's fate."""

    warm: bool
    status: str          # done | quarantined | shed | error | timeout
    latency: float = 0.0  # submit -> results fetched, seconds (when done)
    finished_at: float = 0.0


@dataclass
class LoadgenReport:
    """What one open-loop run measured."""

    config: LoadgenConfig
    submitted: int = 0
    completed: int = 0
    failed: int = 0      # quarantined / transport or fetch errors / timeouts
    shed: int = 0        # 429/503 at admission (backpressure working)
    elapsed: float = 0.0  # first arrival -> last completion, seconds
    latencies: List[float] = field(default_factory=list)
    warm_latencies: List[float] = field(default_factory=list)
    cold_latencies: List[float] = field(default_factory=list)

    @property
    def achieved_rate(self) -> float:
        """Completed jobs per second over the whole run."""
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def sustained(self) -> bool:
        """Did throughput keep up with the offered rate (within 10%)?"""
        return self.achieved_rate >= 0.9 * self.config.rate

    def metrics(self) -> Dict[str, float]:
        lat = self.latencies
        return {
            "offered_rate": self.config.rate,
            "achieved_jobs_per_sec": self.achieved_rate,
            "submitted": float(self.submitted),
            "completed": float(self.completed),
            "failed": float(self.failed),
            "shed": float(self.shed),
            "elapsed_seconds": self.elapsed,
            "p50_ms": 1000.0 * percentile(lat, 50),
            "p95_ms": 1000.0 * percentile(lat, 95),
            "p99_ms": 1000.0 * percentile(lat, 99),
            "mean_ms": (1000.0 * sum(lat) / len(lat)) if lat else 0.0,
            "warm_p99_ms": 1000.0 * percentile(self.warm_latencies, 99),
            "cold_p99_ms": 1000.0 * percentile(self.cold_latencies, 99),
            "sustained": 1.0 if self.sustained else 0.0,
        }

    def to_record(self, bench: str = "service-loadgen",
                  quick: bool = False,
                  extra_params: Optional[dict] = None) -> BenchRecord:
        params = {
            "rate": self.config.rate,
            "duration": self.config.duration,
            "warm_fraction": self.config.warm_fraction,
            "pool": self.config.pool,
            "measured_refs": self.config.refs,
            "seed": self.config.seed,
            # simulation is CPU-bound: worker scaling is only visible
            # when the host has cores to back the extra processes
            "host_cores": os.cpu_count() or 1,
        }
        params.update(extra_params or {})
        return BenchRecord(bench=bench, target="service", quick=quick,
                           params=params, metrics=self.metrics())


def _warm_specs(config: LoadgenConfig) -> List[dict]:
    """The warm pool: ``pool`` distinct specs, stable across runs."""
    return [_spec_entry(seed=config.seed + index, refs=config.refs)
            for index in range(config.pool)]


def _spec_entry(seed: int, refs: int) -> dict:
    return {
        "mix": "mix1",
        "seed": seed,
        "measured_refs": refs,
        "warmup_refs": refs // 2,
        "engine_mode": "batched",
    }


async def _fetch_results(host: str, port: int, keys: List[str],
                         config: LoadgenConfig) -> bool:
    """GET every stored result of a finished job; False if one fails."""
    for key in keys:
        try:
            status, _h, _payload = await fetch(
                host, port, "GET", f"/results/{key}",
                timeout=config.timeout)
        except ServiceError:
            return False
        if status != 200:
            return False
    return True


async def _submit_and_wait(host: str, port: int, body: dict,
                           config: LoadgenConfig, warm: bool,
                           sem: asyncio.Semaphore) -> _Outcome:
    async with sem:
        start = time.monotonic()
        try:
            status, _headers, payload = await fetch(
                host, port, "POST", "/jobs", body=body,
                timeout=config.timeout)
        except ServiceError:
            return _Outcome(warm=warm, status="error",
                            finished_at=time.monotonic())
        if status in (429, 503):
            return _Outcome(warm=warm, status="shed",
                            finished_at=time.monotonic())
        if status != 202:
            return _Outcome(warm=warm, status="error",
                            finished_at=time.monotonic())
        job_id = payload.get("job", {}).get("job_id")
        if not job_id:
            return _Outcome(warm=warm, status="error",
                            finished_at=time.monotonic())
        deadline = start + config.timeout
        while time.monotonic() < deadline:
            asked = time.monotonic()
            hold = min(deadline - asked, MAX_JOB_WAIT)
            try:
                status, _h, payload = await fetch(
                    host, port, "GET", job_path(job_id, hold),
                    timeout=hold + config.timeout)
            except ServiceError:
                status, payload = None, {}
            job = payload.get("job", {}) if status == 200 else {}
            state = job.get("state")
            if state == "done":
                if not await _fetch_results(
                        host, port, job.get("result_keys", []), config):
                    return _Outcome(warm=warm, status="error",
                                    finished_at=time.monotonic())
                end = time.monotonic()
                return _Outcome(warm=warm, status="done",
                                latency=end - start, finished_at=end)
            if state == "quarantined":
                return _Outcome(warm=warm, status="quarantined",
                                finished_at=time.monotonic())
            if time.monotonic() - asked < hold:
                await asyncio.sleep(RETRY_PAUSE)
        return _Outcome(warm=warm, status="timeout",
                        finished_at=time.monotonic())


async def _prime(host: str, port: int, config: LoadgenConfig) -> None:
    """Run the warm pool once so warm arrivals are pure dedup hits."""
    body = {"specs": list(_warm_specs(config)),
            "priority": config.priority}
    sem = asyncio.Semaphore(1)
    outcome = await _submit_and_wait(host, port, body, config,
                                     warm=False, sem=sem)
    if outcome.status != "done":
        raise ServiceError(
            f"loadgen warm-pool priming failed: {outcome.status}")


async def _run_async(config: LoadgenConfig) -> LoadgenReport:
    host, port = _host_port(config.url)
    if config.prime:
        await _prime(host, port, config)
    rng = random.Random(config.seed)
    warm_pool = _warm_specs(config)
    sem = asyncio.Semaphore(config.max_inflight)
    tasks: List[asyncio.Task] = []
    start = time.monotonic()
    deadline = start + config.duration
    next_arrival = start
    sequence = 0
    while next_arrival < deadline:
        now = time.monotonic()
        if next_arrival > now:
            await asyncio.sleep(next_arrival - now)
        warm = rng.random() < config.warm_fraction
        if warm:
            specs = [dict(rng.choice(warm_pool))]
        else:
            # unique seed far outside the warm pool: always a cold cell
            specs = [_spec_entry(seed=1_000_000 + config.seed + sequence,
                                 refs=config.refs)]
        body = {"specs": specs, "priority": config.priority}
        tasks.append(asyncio.create_task(_submit_and_wait(
            host, port, body, config, warm=warm, sem=sem)))
        sequence += 1
        next_arrival += rng.expovariate(config.rate)
    outcomes = await asyncio.gather(*tasks)
    report = LoadgenReport(config=config, submitted=len(outcomes))
    last_finish = start
    for outcome in outcomes:
        last_finish = max(last_finish, outcome.finished_at)
        if outcome.status == "done":
            report.completed += 1
            report.latencies.append(outcome.latency)
            (report.warm_latencies if outcome.warm
             else report.cold_latencies).append(outcome.latency)
        elif outcome.status == "shed":
            report.shed += 1
        else:
            report.failed += 1
    report.elapsed = max(1e-9, last_finish - start)
    return report


def run_loadgen(config: LoadgenConfig) -> LoadgenReport:
    """One open-loop run against a live service; blocking."""
    return asyncio.run(_run_async(config))


def saturation_sweep(url: str, rates: Sequence[float],
                     base: Optional[LoadgenConfig] = None,
                     progress=None) -> List[LoadgenReport]:
    """Step the offered rate upward; one report per rate.

    The service's *saturation throughput* is the highest
    ``achieved_rate`` among the sweep points (reported per-point via
    :attr:`LoadgenReport.sustained` so the knee is visible).  The warm
    pool is primed once by the first run and deduped thereafter.
    """
    if not rates:
        raise ReproError("saturation sweep needs at least one rate")
    reports = []
    for index, rate in enumerate(rates):
        if base is None:
            config = LoadgenConfig(url=url, rate=float(rate))
        else:
            fields = dict(base.__dict__)
            fields["rate"] = float(rate)
            config = LoadgenConfig(**fields)
        if index > 0:
            config.prime = False  # pool is warm after the first run
        if progress is not None:
            progress(config)
        reports.append(run_loadgen(config))
    return reports
