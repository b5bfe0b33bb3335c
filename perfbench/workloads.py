"""The benchmark's three workloads.

Each one is a path a user of the simulator waits on, end to end.  The
sizes and the traffic are those the repository's own benchmark basket
(``repro.bench.basket``) and load generator (``repro loadgen``) use;
the CLI's default run size, 24000 refs/thread, is too large for a
timed window of a few dozen seconds.

``cold-cell``
    One consolidation cell simulated from a spec that is not in the
    result store, as ``repro run`` does it (engine ``auto``, which is
    the batched kernel for these static shapes), at the basket's
    ``cell-cold`` size of 4000 refs/thread.  Every cell gets a fresh
    store, as every ``repro run`` process does.  Rounds cover all
    thirteen Table IV mixes in a seeded order, so footprints from
    cache-resident to memory-bound are all timed; the operation is one
    cell and the latency is the mean over mixes of each mix's median
    cell time.
``scorecard``
    One cold policy x placement scorecard of the ``diurnal-web``
    scenario, as ``repro scenario diurnal-web`` builds it: four static
    placements plus the contention and adaptive schedulers on the
    over-committed reference engine, isolation baselines included, at
    the basket's ``scenario-overhead`` size of 1500 refs/thread.  This
    is the dynamic-control path (scenario load curve, churn and
    scheduler hooks) that the cold cell never takes.
``service``
    ``repro loadgen``'s default traffic against an in-process
    simulation service over HTTP: one-cell jobs of 300 refs/thread,
    half of them drawn from a pool of eight stored specs (answered by
    dedup at admission), half fresh cells the service's worker
    simulates.  One closed-loop client replaces the load generator's
    open-loop Poisson arrivals, so a job's latency is its service time
    and not a queueing delay that depends on the host's speed.  The
    operation is one job, timed from submit until its stored result
    has been fetched.

Every workload draws all of its inputs from the ``--seed`` it is
given and checks its outputs: conservation invariants on every
simulated cell; after the timed window, a byte-identical rerun of the
first cell or scorecard, and for the service, two stored results
compared with local simulations of the same specs.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import statistics
import threading
import time
from dataclasses import replace

from repro.core.experiment import ExperimentSpec, clear_result_cache, run_experiment
from repro.core.mixes import MIXES
from repro.core.store import ResultStore, result_from_dict, result_to_dict

__all__ = ["WORKLOADS", "Ops", "check_cell"]

_SEED_SPACE = 2 ** 31 - 1


def _canonical(result_dict: dict) -> str:
    return json.dumps(result_dict, sort_keys=True)


def check_cell(result) -> list:
    """Conservation invariants of one simulated cell; returns errors."""
    errors = []
    spec = result.spec
    profiles = result.mix.profiles()
    if len(result.vm_metrics) != len(profiles):
        return [f"{spec.mix}: {len(result.vm_metrics)} VMs, "
                f"expected {len(profiles)}"]
    for vm, profile in zip(result.vm_metrics, profiles):
        where = f"{spec.mix} seed {spec.seed} VM{vm.vm_id}"
        expected = profile.threads * spec.measured_refs
        if vm.refs != expected:
            errors.append(f"{where}: {vm.refs} measured refs, "
                          f"expected {expected}")
        if vm.reads + vm.writes != vm.refs:
            errors.append(f"{where}: reads + writes != refs")
        l2_side = vm.l2_hits + vm.l2_peer_transfers + vm.l2_misses
        if vm.l1_misses != l2_side:
            errors.append(f"{where}: {vm.l1_misses} L1 misses but "
                          f"{l2_side} L2 hits + peer + misses")
        if vm.l2_misses != vm.c2c_clean + vm.c2c_dirty + vm.memory_fetches:
            errors.append(f"{where}: L2 misses != c2c + memory fetches")
        if vm.refs and vm.cycles <= 0:
            errors.append(f"{where}: non-positive completion cycles")
    if result.final_time != max(vm.cycles for vm in result.vm_metrics):
        errors.append(f"{spec.mix}: final time is not the last completion")
    return errors


class Ops:
    """Operation accounting shared by the workloads."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


# ----------------------------------------------------------------------
# cold-cell
# ----------------------------------------------------------------------


class ColdCell:
    name = "cold-cell"
    REFS = 4000

    def __init__(self, seed: int):
        self.rng = random.Random(f"cold-cell/{seed}")
        self.mixes = list(MIXES)
        self.first = None

    def _spec(self, mix: str, sim_seed: int) -> ExperimentSpec:
        return ExperimentSpec(mix=mix, seed=sim_seed,
                              measured_refs=self.REFS, engine_mode="auto")

    def _round(self) -> list:
        order = list(self.mixes)
        self.rng.shuffle(order)
        return [self._spec(mix, self.rng.randrange(1, _SEED_SPACE))
                for mix in order]

    def setup(self) -> None:
        warm = self._spec("mix1", self.rng.randrange(1, _SEED_SPACE))
        run_experiment(warm, store=ResultStore())

    def run(self, seconds: float, ops: Ops, speed) -> dict:
        deadline = time.perf_counter() + seconds
        rounds = 0
        while not rounds or time.perf_counter() < deadline:
            for spec in self._round():
                start = time.perf_counter()
                result = run_experiment(spec, store=ResultStore())
                speed.record(spec.mix, time.perf_counter() - start)
                if self.first is None:
                    self.first = (spec, _canonical(result_to_dict(result)))
                ops.record(check_cell(result))
                speed.checkpoint()
            rounds += 1
        speed.checkpoint(force=True)
        # the mean over mixes of each mix's median cell time: every mix
        # weighs the same, and a slow spell of the host that spans a
        # few rounds moves no mix's median
        medians = [statistics.median(speed.scaled[mix]) for mix in self.mixes]
        return {"latency_ms": 1000.0 * statistics.fmean(medians)}

    def verify(self) -> list:
        spec, expected = self.first
        again = run_experiment(spec, use_cache=False)
        if _canonical(result_to_dict(again)) != expected:
            return [f"cold-cell: rerun of {spec.mix} seed {spec.seed} "
                    "is not byte-identical"]
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# scorecard
# ----------------------------------------------------------------------


class Scorecard:
    name = "scorecard"
    SCENARIO = "diurnal-web"
    POLICIES = ("static", "contention", "adaptive")
    REFS = 1500

    def __init__(self, seed: int):
        from repro.scenarios import get_scenario

        self.rng = random.Random(f"scorecard/{seed}")
        self.scenario = get_scenario(self.SCENARIO)
        self.first = None

    def _base(self, sim_seed: int) -> ExperimentSpec:
        # the shape `repro scenario` runs by default
        return ExperimentSpec(
            mix=self.scenario.mix_name, sharing="shared-4",
            policy="affinity", seed=sim_seed, measured_refs=self.REFS,
            sched_epoch=10_000,
            slots_per_core=1 if self.scenario.has_arrivals else 2,
        )

    def scorecard(self, sim_seed: int):
        """One cold scorecard: (rendered table, reports, verdict)."""
        from repro.analysis.report import format_table
        from repro.analysis.scenario_report import (
            compare_scenario_policies,
            scenario_table,
            scenario_verdict,
        )

        clear_result_cache()  # isolation baselines are recomputed too
        reports = compare_scenario_policies(
            self.SCENARIO, policies=self.POLICIES,
            base=self._base(sim_seed), use_cache=False)
        headers, rows = scenario_table(reports)
        return format_table(headers, rows), reports, scenario_verdict(reports)

    def _check(self, sim_seed: int, reports, verdict) -> list:
        from repro.analysis.sched_report import DEFAULT_PLACEMENTS

        where = f"scorecard seed {sim_seed}"
        expected = [f"static/{p}" for p in DEFAULT_PLACEMENTS] \
            + [p for p in self.POLICIES if p != "static"]
        if list(reports) != expected:
            return [f"{where}: cells {list(reports)}, expected {expected}"]
        errors = []
        for label, report in reports.items():
            slowdowns = list(report.slowdowns.values())
            if len(slowdowns) != len(self.scenario.roster) or not all(
                    math.isfinite(s) and s > 0 for s in slowdowns):
                errors.append(f"{where} {label}: bad slowdowns {slowdowns}")
            if not report.control.get("load_adjustments"):
                errors.append(f"{where} {label}: the load curve never acted")
        for key in ("best_static", "best_adaptive", "speedup_gain"):
            if key not in verdict:
                errors.append(f"{where}: verdict lacks {key}")
        return errors

    def setup(self) -> None:
        spec = replace(self._base(self.rng.randrange(1, _SEED_SPACE)),
                       scenario=self.SCENARIO, sched_policy="adaptive")
        run_experiment(spec, use_cache=False)

    def run(self, seconds: float, ops: Ops, speed) -> dict:
        # the package re-exports a function under the module's name
        scenario_report = importlib.import_module(
            "repro.analysis.scenario_report")
        isolation = importlib.import_module("repro.core.isolation")

        # A scorecard takes several seconds, long enough for the host's
        # speed to change under it, so it is timed in pieces between
        # its cells (the scenario cells and the isolation baselines)
        # and each piece is scaled by the host speed around it.
        piece = [0]
        mark = [0.0]
        originals = {module: module.run_experiment
                     for module in (scenario_report, isolation)}

        def end_piece():
            speed.record(piece[0], time.perf_counter() - mark[0])
            piece[0] += 1

        def timed_cell(original):
            def cell(*args, **kwargs):
                result = original(*args, **kwargs)
                end_piece()
                speed.checkpoint()
                mark[0] = time.perf_counter()
                return result
            return cell

        for module, original in originals.items():
            module.run_experiment = timed_cell(original)
        try:
            deadline = time.perf_counter() + seconds
            while self.first is None or time.perf_counter() < deadline:
                sim_seed = self.rng.randrange(1, _SEED_SPACE)
                piece[0] = 0
                mark[0] = time.perf_counter()
                table, reports, verdict = self.scorecard(sim_seed)
                end_piece()
                if self.first is None:
                    self.first = (sim_seed, table)
                ops.record(self._check(sim_seed, reports, verdict))
                speed.checkpoint()
        finally:
            for module, original in originals.items():
                module.run_experiment = original
        speed.checkpoint(force=True)
        counts = {len(times) for times in speed.scaled.values()}
        if len(counts) != 1:
            raise RuntimeError("scorecards ran different numbers of cells")
        # the sum over pieces of each piece's median: a slow spell of
        # the host that spans one piece of one scorecard moves no median
        return {"latency_ms": 1000.0 * sum(
            statistics.median(times) for times in speed.scaled.values())}

    def verify(self) -> list:
        sim_seed, expected = self.first
        if self.scorecard(sim_seed)[0] != expected:
            return [f"scorecard seed {sim_seed}: rerun table differs"]
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------


class _Completions:
    """Completion notices from the service's job queue.

    Clients block on these instead of polling ``GET /jobs/<id>``, so
    job latency is not rounded up to a poll interval; the job state is
    still read back over HTTP once the notice arrives.
    """

    def __init__(self, queue):
        self._cond = threading.Condition()
        self._finished = set()
        for name in ("mark_done", "quarantine"):
            setattr(queue, name, self._notifying(getattr(queue, name)))

    def _notifying(self, transition):
        def wrapper(job_id, *args, **kwargs):
            job = transition(job_id, *args, **kwargs)
            with self._cond:
                self._finished.add(job_id)
                self._cond.notify_all()
            return job

        return wrapper

    def wait(self, job_id: str, timeout: float) -> bool:
        with self._cond:
            return self._cond.wait_for(
                lambda: job_id in self._finished, timeout=timeout)


class ServiceLoad:
    name = "service"
    # repro loadgen's defaults; that half the jobs are warm is the load
    # generator's assumption, not a measured traffic mix
    REFS = 300
    POOL = 8
    WARM_FRACTION = 0.5
    TIMEOUT = 60.0

    def __init__(self, seed: int):
        rng = random.Random(f"service/{seed}")
        self.seed = seed
        self.pool = [self._spec(rng.randrange(1, _SEED_SPACE))
                     for _ in range(self.POOL)]
        self.expected = {}  # spec key -> canonical stored result
        self.cold_checked = []  # (spec, stored result dict)
        self.server = None
        self.queue_waits = []  # filled by the traced run only

    def _spec(self, sim_seed: int) -> ExperimentSpec:
        return ExperimentSpec(mix="mix1", seed=sim_seed,
                              measured_refs=self.REFS, engine_mode="auto")

    def _plan(self):
        """Endless seeded job plan of (spec, warm) pairs.

        Each job is warm (a pool spec, which the service answers by
        dedup at admission) with probability ``WARM_FRACTION`` and
        otherwise a fresh cell, as ``repro loadgen`` draws them.
        """
        rng = random.Random(f"service/{self.seed}/plan")
        while True:
            if rng.random() < self.WARM_FRACTION:
                yield rng.choice(self.pool), True
            else:
                yield self._spec(rng.randrange(1, _SEED_SPACE)), False

    def setup(self) -> None:
        from repro.service import ServiceClient, ServiceServer

        self.server = ServiceServer(port=0).start_in_thread()
        self.completions = _Completions(self.server.queue)
        self.url = f"http://{self.server.host}:{self.server.port}"
        client = ServiceClient(self.url)
        job = client.submit(self.pool)
        if not self.completions.wait(job["job_id"], self.TIMEOUT) or \
                client.job(job["job_id"])["state"] != "done":
            raise RuntimeError("service could not simulate the warm pool")
        for key in client.job(job["job_id"])["result_keys"]:
            payload = client.result(key, decode=False)
            self.expected[key] = _canonical(payload["result"])

    def _job(self, client, spec, warm):
        """One job; returns (seconds, errors, stored result)."""
        start = time.perf_counter()
        handle = client.submit([spec])
        job_id = handle["job_id"]
        if handle["state"] != "done" and \
                not self.completions.wait(job_id, self.TIMEOUT):
            return None, [f"job {job_id} did not finish"], None
        job = client.job(job_id)
        if job["state"] != "done":
            return None, [f"job {job_id} ended {job['state']}: "
                          f"{job.get('error')}"], None
        key, = job["result_keys"]
        result = client.result(key, decode=False)["result"]
        elapsed = time.perf_counter() - start
        if not warm:
            errors = check_cell(result_from_dict(result))
        elif self.expected.get(key) != _canonical(result):
            errors = [f"job {job_id}: stored result {key} changed"]
        else:
            errors = []
        return elapsed, errors, result

    def run(self, seconds: float, ops: Ops, speed) -> dict:
        from repro.service import ServiceClient

        client = ServiceClient(self.url)
        plan = self._plan()
        self.job_seconds = 0.0
        tried = {"warm": 0, "cold": 0}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not all(tried.values()):
            spec, warm = next(plan)
            kind = "warm" if warm else "cold"
            try:
                elapsed, errors, result = self._job(client, spec, warm)
            except Exception as exc:  # a failed request fails the job
                elapsed, errors, result = None, [repr(exc)], None
            ops.record(errors)
            tried[kind] += 1
            if elapsed is not None:
                speed.record(kind, elapsed)
                self.job_seconds += elapsed
            if not warm and result is not None and len(self.cold_checked) < 2:
                self.cold_checked.append((spec, result))
            speed.checkpoint()  # the service is idle between jobs
        speed.checkpoint(force=True)
        if not (speed.scaled["warm"] and speed.scaled["cold"]):
            raise RuntimeError("no warm or no cold service job completed")
        # the mean job latency of the traffic mix, from the mean of each
        # kind.  Not their medians: the collector's full passes over the
        # service's stored results land on about half the cold jobs, so
        # a median would fall in the gap between the two groups.
        latency = self.WARM_FRACTION * statistics.fmean(speed.scaled["warm"]) \
            + (1 - self.WARM_FRACTION) * statistics.fmean(speed.scaled["cold"])
        return {"latency_ms": 1000.0 * latency}

    def verify(self) -> list:
        errors = []
        for spec, stored in self.cold_checked:
            local = result_to_dict(run_experiment(spec, use_cache=False))
            if _canonical(json.loads(json.dumps(local))) != _canonical(stored):
                errors.append(f"service result for seed {spec.seed} differs "
                              "from a local simulation")
        if not self.cold_checked:
            errors.append("service: no cold job was checked")
        return errors

    def trace_queue_waits(self) -> None:
        """Record each job's wait between admission and claim."""
        queue = self.server.queue
        submitted = {}
        original_submit, original_claim = queue.submit, queue.claim

        def submit(job):
            submitted[job.job_id] = time.perf_counter()
            return original_submit(job)

        def claim():
            job = original_claim()
            if job is not None and job.job_id in submitted:
                self.queue_waits.append(
                    time.perf_counter() - submitted.pop(job.job_id))
            return job

        queue.submit, queue.claim = submit, claim

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (ColdCell, Scorecard, ServiceLoad)}
