"""Integration tests for the multi-worker fleet.

Real worker processes, real HTTP, real journals: these spawn small
fleets (tiny reference budgets keep each simulated cell fast), drive
them through the front end, and assert the tentpole guarantees —
ring-stable routing, fleet-wide dedup through the shared store, and
kill-one-worker failover with zero lost jobs and results identical to
a serial in-process baseline.
"""

import asyncio
import inspect
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.store import result_to_dict
from repro.errors import ServiceError
from repro.service import ServiceServer
from repro.service.fleet import (
    WORKER_KNOBS,
    FleetServer,
    WorkerHandle,
    _job_body,
    _PendingReplay,
)
from repro.service.jobs import Job

TINY = dict(mix="mix1", measured_refs=300, warmup_refs=150,
            engine_mode="batched")


def tiny(seed):
    return dict(TINY, seed=seed)


@pytest.fixture
def make_fleet():
    fleets = []

    def build(**kwargs):
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("health_interval", 0.15)
        kwargs.setdefault("health_fails", 2)
        kwargs.setdefault("backoff_base", 0.01)
        fleet = FleetServer(**kwargs).start_in_thread()
        fleets.append(fleet)
        return fleet

    yield build
    for fleet in fleets:
        try:
            fleet.shutdown()
        except Exception:
            fleet.abort()


class FleetClient:
    """Minimal urllib client; keeps the tests dependency-free."""

    def __init__(self, fleet):
        self.base = f"http://127.0.0.1:{fleet.port}"

    def post(self, path, payload, headers=None):
        request = urllib.request.Request(
            self.base + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json",
                     **(headers or {})})
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    def get(self, path):
        with urllib.request.urlopen(self.base + path) as response:
            return json.loads(response.read())

    def submit(self, specs, **payload):
        return self.post("/jobs", {"specs": specs, **payload})["job"]

    def wait(self, job_id, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            record = self.get(f"/jobs/{job_id}").get("job")
            if record and record["state"] in ("done", "quarantined"):
                return record
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} not terminal in {timeout}s")


class TestRoutingAndDedup:
    def test_submit_routes_by_ring_and_dedups_fleet_wide(self, make_fleet):
        fleet = make_fleet(workers=2)
        client = FleetClient(fleet)
        seeds = list(range(1, 7))
        ids = [client.submit([tiny(seed)])["job_id"] for seed in seeds]

        # routing is exactly what the ring says, so identical specs
        # always land on the same worker
        for seed, job_id in zip(seeds, ids):
            job = Job.create([((0,), ExperimentSpec(**tiny(seed)))])
            assert fleet.route_of(job_id) == fleet.ring.lookup(job.job_key)
        used = {fleet.route_of(job_id) for job_id in ids}
        assert used == {"w0", "w1"}  # six seeds spread over both workers

        for job_id in ids:
            assert client.wait(job_id)["state"] == "done"

        # a job spanning every seed is warm *somewhere* even though no
        # single worker simulated all of them: shared-store dedup
        combo = client.submit([tiny(seed) for seed in seeds])
        record = client.wait(combo["job_id"])
        assert record["state"] == "done"
        assert record["cells_cached"] == len(seeds)
        assert record["cells_simulated"] == 0
        aggregate = client.get("/metrics")["aggregate"]
        assert aggregate["counters"]["service.dedup_hits"] >= 1

    def test_identical_specs_coalesce_on_one_worker(self, make_fleet):
        fleet = make_fleet(workers=2)
        client = FleetClient(fleet)
        first = client.submit([tiny(97)])
        second = client.submit([tiny(97)])
        assert fleet.route_of(first["job_id"]) == \
            fleet.route_of(second["job_id"])
        done = [client.wait(j["job_id"]) for j in (first, second)]
        assert [r["state"] for r in done] == ["done", "done"]
        assert done[0]["result_keys"] == done[1]["result_keys"]

    def test_duplicate_job_id_rejected(self, make_fleet):
        fleet = make_fleet(workers=2)
        client = FleetClient(fleet)
        job = client.submit([tiny(5)])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            client.post("/jobs", {"specs": [tiny(6)],
                                  "job_id": job["job_id"]})
        assert excinfo.value.code == 400

    def test_healthz_and_metrics_shape(self, make_fleet):
        fleet = make_fleet(workers=2)
        client = FleetClient(fleet)
        health = client.get("/healthz")
        assert health["status"] == "ok"
        assert health["live_workers"] == 2
        assert set(health["workers"]) == {"w0", "w1"}
        assert health["ring"]["points"] == 2 * fleet.replicas
        metrics = client.get("/metrics")
        assert set(metrics) == {"fleet", "workers", "aggregate"}
        assert set(metrics["workers"]) == {"w0", "w1"}
        # per-worker depth gauges are stamped into the front-end view
        assert "fleet.worker_depth.w0" in metrics["fleet"]["gauges"]


class TestFailover:
    def test_kill_one_worker_loses_nothing(self, make_fleet, tmp_path):
        fleet = make_fleet(workers=3, store=tmp_path / "store",
                           journal_dir=tmp_path / "journals")
        client = FleetClient(fleet)
        seeds = list(range(1, 13))
        ids = {seed: client.submit([tiny(seed)])["job_id"]
               for seed in seeds}
        victim = fleet.live_workers[0]
        victim_jobs = [j for j in ids.values()
                       if fleet.route_of(j) == victim]
        assert victim_jobs  # twelve jobs always touch every worker
        fleet.kill_worker(victim)

        records = {seed: client.wait(job_id, timeout=180.0)
                   for seed, job_id in ids.items()}
        assert all(r["state"] == "done" for r in records.values())

        health = client.get("/healthz")
        assert health["live_workers"] == 2
        assert health["workers"][victim]["alive"] is False
        counters = client.get("/metrics")["fleet"]["counters"]
        assert counters["fleet.worker_deaths"] == 1

        # results are identical to a serial in-process baseline, byte
        # for byte: same spec -> same simulation, fleet or no fleet
        for seed in seeds[:3]:
            keys = records[seed]["result_keys"]
            assert len(keys) == 1
            served = client.get(f"/results/{keys[0]}")["result"]
            baseline = run_experiment(ExperimentSpec(**tiny(seed)),
                                      use_cache=False)
            assert json.dumps(served, sort_keys=True) == \
                json.dumps(result_to_dict(baseline), sort_keys=True)

    def test_drain_refuses_new_work(self, make_fleet):
        fleet = make_fleet(workers=2)
        client = FleetClient(fleet)
        job = client.submit([tiny(21)])
        client.wait(job["job_id"])
        fleet.shutdown()
        with pytest.raises(Exception):
            client.submit([tiny(22)])

    def test_kill_two_workers_still_drains(self, make_fleet, tmp_path):
        """Cascading failure: replay of the first victim can discover
        the second mid-flight without deadlocking the failover path."""
        fleet = make_fleet(workers=3, store=tmp_path / "store",
                           journal_dir=tmp_path / "journals")
        client = FleetClient(fleet)
        ids = [client.submit([tiny(seed)])["job_id"]
               for seed in range(1, 9)]
        first, second = fleet.live_workers[:2]
        fleet.kill_worker(first)
        fleet.kill_worker(second)
        records = [client.wait(job_id, timeout=180.0) for job_id in ids]
        assert all(r["state"] == "done" for r in records)
        health = client.get("/healthz")
        assert health["live_workers"] == 1

    def test_dead_workers_terminal_jobs_stay_visible(self, make_fleet,
                                                     tmp_path):
        """A job finished on a worker that later dies keeps showing up
        in both GET /jobs and GET /jobs/<id> (pinned at the front end)."""
        fleet = make_fleet(workers=2, store=tmp_path / "store",
                           journal_dir=tmp_path / "journals")
        client = FleetClient(fleet)
        probe = Job.create([((0,), ExperimentSpec(**tiny(41)))])
        victim = fleet.ring.lookup(probe.job_key)
        job = client.submit([tiny(41)])
        client.wait(job["job_id"])
        fleet.kill_worker(victim)

        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            listing = {j["job_id"]: j
                       for j in client.get("/jobs")["jobs"]}
            record = listing.get(job["job_id"])
            if record is not None and record["state"] == "done" \
                    and client.get("/healthz")["live_workers"] == 1:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("terminal job vanished from listings "
                                 "after its worker died")
        pinned = client.get(f"/jobs/{job['job_id']}")["job"]
        assert pinned["state"] == "done"
        assert pinned["worker"] == victim


class TestRouteRetirement:
    def test_terminal_routes_are_retired_but_still_served(
            self, make_fleet):
        fleet = make_fleet(workers=2)
        client = FleetClient(fleet)
        job = client.submit([tiny(31)])
        assert client.wait(job["job_id"])["state"] == "done"
        # the poll that observed the terminal state dropped the route,
        # so the front end's memory is bounded by in-flight work
        assert job["job_id"] not in fleet._routes
        # the duplicate-id check survives retirement
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            client.post("/jobs", {"specs": [tiny(32)],
                                  "job_id": job["job_id"]})
        assert excinfo.value.code == 400
        # and so do reads: the owning worker still has the record
        assert client.get(f"/jobs/{job['job_id']}")["job"]["state"] \
            == "done"
        assert any(j["job_id"] == job["job_id"]
                   for j in client.get("/jobs")["jobs"])


class FakeProc:
    """A dead worker process for loop-level failover tests."""

    pid = 0

    def is_alive(self):
        return False

    def kill(self):
        pass


def offline_fleet(tmp_path, **kwargs):
    """A FleetServer with hand-built workers and no processes."""
    kwargs.setdefault("workers", 2)
    fleet = FleetServer(store=tmp_path / "store",
                        journal_dir=tmp_path / "journals", **kwargs)
    for index in range(kwargs["workers"]):
        name = f"w{index}"
        fleet.workers[name] = WorkerHandle(
            name=name, process=FakeProc(), port=1,
            journal=fleet.journal_dir / f"worker-{name}.jsonl")
        fleet.ring.add(name)
    return fleet


def parked_replay(fleet, seed=3):
    """Park one pending replay on ``fleet``; returns its job."""
    job = Job.create([((0,), ExperimentSpec(**tiny(seed)))])
    snapshot = job.to_dict()
    snapshot["state"] = "submitted"
    snapshot["worker"] = None
    fleet._pending_replays[job.job_id] = _PendingReplay(
        job_id=job.job_id, job_key=job.job_key, body=_job_body(job),
        client="anon", snapshot=snapshot)
    return job


class TestFailoverInternals:
    def test_cascading_failover_does_not_deadlock(self, tmp_path,
                                                  monkeypatch):
        """Journal replay that finds a second dead worker must fail it
        under the already-held lock, not block re-acquiring it."""
        from repro.service import fleet as fleet_mod
        from repro.service.jobs import JobQueue

        fleet = offline_fleet(tmp_path)
        queue = JobQueue(fleet.workers["w0"].journal)
        queue.submit(Job.create([((0,), ExperimentSpec(**tiny(1)))]))
        queue.close()

        async def dead_fetch(*args, **kwargs):
            raise ServiceError("unreachable")

        monkeypatch.setattr(fleet_mod, "fetch", dead_fetch)

        async def scenario():
            fleet._failover_lock = asyncio.Lock()
            # w0's replay forwards to w1, finds it dead too, and must
            # complete (pre-fix: hangs forever on the failover lock)
            await asyncio.wait_for(
                fleet._fail_worker("w0", "test"), timeout=10)

        asyncio.run(scenario())
        assert fleet.live_workers == []
        assert len(fleet.ring) == 0
        # with no survivors the job parks for retry instead of vanishing
        assert len(fleet._pending_replays) == 1
        counters = fleet.telemetry.snapshot()["counters"]
        assert counters["fleet.replay_deferred"] == 1

    def test_parked_replay_retries_until_admitted(self, tmp_path):
        fleet = offline_fleet(tmp_path)
        job = parked_replay(fleet)
        responses = [(429, {"error": "job queue is full"}),
                     (202, {"job": {"job_id": job.job_id}})]

        async def fake_forward(job_key, body, headers, locked=False):
            return responses.pop(0)

        fleet._forward = fake_forward
        asyncio.run(fleet._drain_pending_replays())
        # bounced on backpressure: parked, not lost, and pollers see
        # the journaled record instead of a 502
        assert job.job_id in fleet._pending_replays
        assert fleet._local_job(job.job_id)["state"] == "submitted"
        asyncio.run(fleet._drain_pending_replays())
        assert job.job_id not in fleet._pending_replays
        counters = fleet.telemetry.snapshot()["counters"]
        assert counters["fleet.replayed"] == 1

    def test_replay_exhaustion_pins_a_terminal_error(self, tmp_path):
        fleet = offline_fleet(tmp_path, replay_retries=2)
        job = parked_replay(fleet)

        async def always_full(job_key, body, headers, locked=False):
            return 429, {"error": "job queue is full"}

        fleet._forward = always_full
        asyncio.run(fleet._drain_pending_replays())
        asyncio.run(fleet._drain_pending_replays())
        assert job.job_id not in fleet._pending_replays
        record = fleet._local_job(job.job_id)
        assert record["state"] == "quarantined"
        assert "replay exhausted" in record["error"]
        counters = fleet.telemetry.snapshot()["counters"]
        assert counters["fleet.replay_failures"] == 1

    def test_pinned_finals_are_bounded(self, tmp_path):
        fleet = offline_fleet(tmp_path)
        fleet.FINALS_CAP = 4
        for index in range(10):
            fleet._pin_final(f"job-{index}", {"job_id": f"job-{index}",
                                              "state": "done"})
        assert len(fleet._finals) == 4
        # evicted ids still trip the duplicate-id check via the
        # (itself bounded) seen-set
        assert "job-0" in fleet._seen_ids
        assert "job-9" in fleet._finals


class TestFleetTracing:
    def test_two_worker_fleet_yields_one_connected_trace(
            self, make_fleet, tmp_path):
        from repro.obs import (align_clocks, collect_spans, critical_path,
                               trace_for_job, validate_trace)

        trace_dir = tmp_path / "traces"
        fleet = make_fleet(workers=2, trace_dir=trace_dir)
        client = FleetClient(fleet)
        job = client.submit([tiny(1)])
        record = client.wait(job["job_id"])
        assert record["state"] == "done"
        fleet.shutdown()  # drains workers; every tracer flushes

        spans, torn = collect_spans(trace_dir)
        assert torn == 0
        tree = trace_for_job(align_clocks(spans), job["job_id"])
        assert tree
        report = validate_trace(tree)
        assert report["orphans"] == []
        assert len(report["roots"]) == 1
        root = report["roots"][0]
        assert root.name == "job.accept"
        assert root.process == "fleet-front"

        names = {s.name for s in tree}
        assert {"job.accept", "fleet.forward", "service.submit",
                "job.e2e", "job.run", "executor.grid"} <= names
        # front end and worker are different OS processes
        assert len({s.pid for s in tree}) >= 2
        worker_procs = {s.process for s in tree
                        if s.process.startswith("service-")}
        assert worker_procs <= {"service-w0", "service-w1"}
        assert len(worker_procs) == 1  # one job routes to one worker

        path = critical_path(tree)
        assert sum(path.segments.values()) == path.total_us
        assert path.segments.get("sim", 0) > 0

    def test_trace_dir_off_is_the_default(self, make_fleet):
        fleet = make_fleet(workers=2)
        assert fleet.tracer is None


class TestWorkerKnobs:
    @pytest.mark.parametrize("knob", [{"journal": "x"}, {"bogus": 1}])
    def test_unknown_or_fleet_owned_knob_is_refused(self, knob, tmp_path):
        with pytest.raises(TypeError, match=next(iter(knob))):
            FleetServer(workers=1, store=tmp_path / "store",
                        journal_dir=tmp_path / "journals", **knob)

    def test_knobs_reach_the_worker_server(self, tmp_path):
        knobs = dict(queue_limit=5, rate=2.0, burst=3, executor_jobs=2,
                     concurrency=2, max_attempts=4, backoff_base=0.1,
                     backoff_cap=1.0, executor_retries=0)
        assert sorted(knobs) == sorted(WORKER_KNOBS)
        fleet = FleetServer(workers=1, store=tmp_path / "store",
                            journal_dir=tmp_path / "journals", **knobs)
        config = fleet._worker_config("w0")
        assert knobs.items() <= config.items()
        inspect.signature(ServiceServer).bind(**config)
        # an unset knob takes the worker server's own default
        config = FleetServer(workers=1, store=tmp_path / "store",
                             journal_dir=tmp_path / "journals"
                             )._worker_config("w0")
        assert not set(WORKER_KNOBS) & set(config)


class TestJobBody:
    def test_round_trips_cells_priority_and_id(self):
        cells = [((0,), ExperimentSpec(**tiny(1))),
                 (("a", 2), ExperimentSpec(**tiny(2)))]
        job = Job.create(cells, priority=3)
        body = _job_body(job)
        assert body["job_id"] == job.job_id
        assert body["priority"] == 3
        assert [tuple(s["key"]) for s in body["specs"]] == [(0,), ("a", 2)]
        rebuilt = Job.create(
            [(tuple(s["key"]),
              ExperimentSpec(**{k: v for k, v in s.items() if k != "key"}))
             for s in body["specs"]], priority=body["priority"])
        assert rebuilt.job_key == job.job_key
