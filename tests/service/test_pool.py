"""The service's process pool: ``ServiceServer(executor_jobs=N)``.

Real spawned pool processes: these start ``--jobs 2`` servers, run
one-cell and many-cell jobs through the one pool, and check that the
pool survives a killed process, joins the job's trace, and never
outlives its server.
"""

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import ServiceClient

from .conftest import tiny_spec

needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads process state from /proc")


def pool_processes(before=()):
    """This process's live multiprocessing children not in ``before``."""
    return [p for p in multiprocessing.active_children() if p not in before]


def client_of(server):
    return ServiceClient(f"http://127.0.0.1:{server.port}",
                         client_id="pytest")


def run_job(client, specs, timeout=60.0):
    record = client.wait(client.submit(specs)["job_id"], timeout=timeout)
    assert record["state"] == "done", record
    return record


def _stat(pid):
    """``(state, ppid)`` of a process from ``/proc``, or None if gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def alive(pid):
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def children(pid):
    """Live child pids of ``pid``."""
    kids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _stat(entry.name)
            if stat is not None and stat[0] != "Z" and stat[1] == pid:
                kids.append(int(entry.name))
    return kids


class TestPooledJobs:
    def test_one_cell_and_grid_jobs_share_one_warm_pool(self, make_server):
        before = pool_processes()
        server = make_server(executor_jobs=2)
        with client_of(server) as client:
            health = client.healthz()
            assert (health["jobs"], health["concurrency"]) == (2, 2)
            run_job(client, [tiny_spec(seed=1)])
            pool = pool_processes(before)
            assert len(pool) == 2
            run_job(client, [tiny_spec(seed=2)])
            run_job(client, [tiny_spec(seed=3, sharing="shared-4"),
                             tiny_spec(seed=3, policy="affinity")])
        assert pool_processes(before) == pool  # no process was replaced

    def test_pooled_job_yields_one_connected_trace(self, make_server,
                                                   tmp_path):
        from repro.obs import (align_clocks, collect_spans, critical_path,
                               trace_for_job, validate_trace)

        trace_dir = tmp_path / "traces"
        before = pool_processes()
        server = make_server(executor_jobs=2, trace_dir=trace_dir)
        with client_of(server) as client:
            job_id = run_job(client, [tiny_spec()])["job_id"]
        pool = {p.pid for p in pool_processes(before)}
        server.shutdown()  # drains; every tracer has appended its spans

        spans, torn = collect_spans(trace_dir)
        assert torn == 0
        tree = trace_for_job(align_clocks(spans), job_id)
        report = validate_trace(tree)
        assert report["orphans"] == []
        root, = report["roots"]
        assert (root.name, root.pid) == ("service.submit", os.getpid())
        assert {"service.submit", "job.e2e", "job.queue_wait", "job.run",
                "executor.grid", "cell.simulate"} <= {s.name for s in tree}
        # the one-cell job simulated in a pool process, not the server
        simulated = [s for s in tree if s.name == "cell.simulate"]
        assert simulated and {s.pid for s in simulated} <= pool
        path = critical_path(tree)
        assert sum(path.segments.values()) == path.total_us
        assert path.segments.get("sim", 0) > 0


class TestPoolFailure:
    def test_job_survives_a_pool_process_killed_mid_cell(self, make_server):
        before = pool_processes()
        server = make_server(executor_jobs=2)
        # two cells of about two seconds each: both are mid-run when
        # the kill lands, whether the pool started with the server or
        # with the job
        specs = [tiny_spec(mix="mix5", sharing="shared-4",
                           measured_refs=12000, seed=seed)
                 for seed in (1, 2)]
        with client_of(server) as client:
            job_id = client.submit(specs)["job_id"]
            deadline = time.monotonic() + 30
            while server.queue.get(job_id).state != "running" \
                    or not pool_processes(before):
                assert time.monotonic() < deadline, "the job never started"
                time.sleep(0.02)
            time.sleep(1.5)
            victim = pool_processes(before)[0]
            os.kill(victim.pid, signal.SIGKILL)
            # the lost cells re-run in the server: bounded, not a hang
            record = client.wait(job_id, timeout=60)
            assert record["state"] == "done", record
            assert record["attempts"] == 1
            # a later job runs, in a fresh pool
            run_job(client, [tiny_spec(seed=4)])
        assert victim not in pool_processes(before)
        assert pool_processes(before)


class TestPoolLifetime:
    def test_shutdown_leaves_no_pool_process(self, make_server):
        before = pool_processes()
        server = make_server(executor_jobs=2)
        with client_of(server) as client:
            run_job(client, [tiny_spec()])
        pool = pool_processes(before)
        assert pool
        server.shutdown()
        assert not any(p.is_alive() for p in pool)

    @needs_proc
    def test_sigterm_leaves_no_pool_process(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[2] / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "2",
             "--port", "0"],
            env=env, cwd=tmp_path, stderr=subprocess.PIPE, text=True)
        try:
            match = re.search(r"listening on (http://\S+)",
                              server.stderr.readline())
            assert match, "the server did not report its address"
            with ServiceClient(match.group(1)) as client:
                run_job(client, [tiny_spec()])
            pool = children(server.pid)
            assert len(pool) >= 2  # the pool (and its resource tracker)
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
            deadline = time.monotonic() + 5
            while any(alive(pid) for pid in pool):
                assert time.monotonic() < deadline, \
                    [pid for pid in pool if alive(pid)]
                time.sleep(0.05)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stderr.close()
