"""Tests for the durable priority job queue and its journal."""

import json

import pytest

from repro.errors import ServiceError
from repro.service.jobs import Job, JobQueue, JobState, job_key_of

from .conftest import tiny_cells, tiny_spec


def make_job(priority=10, **overrides):
    return Job.create(tiny_cells(**overrides), priority=priority)


class TestJob:
    def test_create_assigns_id_and_key(self):
        job = make_job()
        assert job.job_id
        assert job.job_key == job_key_of(job.cells)
        assert job.state == JobState.SUBMITTED

    def test_job_key_ignores_order_and_labels(self):
        cells = tiny_cells()
        relabeled = [(("x", i), spec)
                     for i, (_key, spec) in enumerate(reversed(cells))]
        assert job_key_of(cells) == job_key_of(relabeled)

    def test_job_key_differs_for_different_specs(self):
        assert job_key_of(tiny_cells()) != job_key_of(tiny_cells(seed=2))

    def test_empty_job_rejected(self):
        with pytest.raises(ServiceError):
            Job.create([])

    def test_round_trip_codec(self):
        job = make_job(priority=3)
        job.state = JobState.DONE
        job.result_keys = ["abc"]
        clone = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.job_id == job.job_id
        assert clone.cells == job.cells
        assert clone.priority == 3
        assert clone.state == JobState.DONE
        assert clone.result_keys == ["abc"]

    def test_summary_hides_spec_payloads(self):
        summary = make_job().summary()
        assert summary["cells"] == 4


class TestQueueOrdering:
    def test_fifo_within_priority(self):
        queue = JobQueue()
        first = queue.submit(make_job())
        second = queue.submit(make_job(seed=2))
        assert queue.claim().job_id == first.job_id
        assert queue.claim().job_id == second.job_id
        assert queue.claim() is None

    def test_lower_priority_value_runs_first(self):
        queue = JobQueue()
        queue.submit(make_job(priority=10))
        urgent = queue.submit(Job.create(tiny_cells(seed=3), priority=1))
        assert queue.claim().job_id == urgent.job_id

    def test_claim_counts_attempts_and_marks_running(self):
        queue = JobQueue()
        queue.submit(make_job())
        job = queue.claim()
        assert job.state == JobState.RUNNING
        assert job.attempts == 1
        assert queue.running_count == 1
        assert queue.pending_count == 0

    def test_requeue_and_reclaim(self):
        queue = JobQueue()
        submitted = queue.submit(make_job())
        job = queue.claim()
        queue.mark_failed(job.job_id, "boom")
        queue.requeue(job.job_id)
        again = queue.claim()
        assert again.job_id == submitted.job_id
        assert again.attempts == 2

    def test_duplicate_id_rejected(self):
        queue = JobQueue()
        job = queue.submit(make_job())
        with pytest.raises(ServiceError):
            queue.submit(job)

    def test_unknown_job_rejected(self):
        with pytest.raises(ServiceError):
            JobQueue().mark_done("nope", [], 0, 0)


class TestJournalReplay:
    def test_done_jobs_replay_terminal(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        job = queue.submit(make_job())
        queue.claim()
        queue.mark_done(job.job_id, ["k1"], cells_cached=1,
                        cells_simulated=3)
        queue.close()

        replayed = JobQueue(journal)
        recovered = replayed.get(job.job_id)
        assert recovered.state == JobState.DONE
        assert recovered.result_keys == ["k1"]
        assert recovered.cells_simulated == 3
        assert replayed.recovered == 0
        assert replayed.claim() is None

    def test_running_jobs_reenqueue(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        pending = queue.submit(make_job())
        crashed = queue.submit(make_job(seed=2))
        queue.claim()  # `pending` starts running, then we "crash"
        queue.close()

        replayed = JobQueue(journal)
        assert replayed.recovered == 2
        ids = {replayed.claim().job_id, replayed.claim().job_id}
        assert ids == {pending.job_id, crashed.job_id}
        # the lost attempt is still on the books
        assert replayed.get(pending.job_id).attempts == 2

    def test_quarantined_jobs_stay_quarantined(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        job = queue.submit(make_job())
        queue.claim()
        queue.quarantine(job.job_id, "poison")
        queue.close()

        replayed = JobQueue(journal)
        assert replayed.get(job.job_id).state == JobState.QUARANTINED
        assert replayed.claim() is None

    def test_torn_trailing_line_skipped(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        job = queue.submit(make_job())
        queue.close()
        with open(journal, "a") as handle:
            handle.write('{"event": "update", "job_id": "' + job.job_id)

        replayed = JobQueue(journal)
        assert replayed.torn_lines == 1
        assert replayed.get(job.job_id).state == JobState.SUBMITTED
        assert replayed.claim().job_id == job.job_id

    def test_unknown_schema_line_skipped(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(json.dumps({
            "schema": 999, "event": "submit", "job": {},
        }) + "\n")
        replayed = JobQueue(journal)
        assert replayed.torn_lines == 1
        assert replayed.jobs() == []

    @pytest.mark.parametrize("field, value, replays", [
        ("l2_vm_quota", False, True),
        ("start_stagger", 0, True),
        ("l2_vm_quota", True, False),
        ("start_stagger", 20000, False),
    ])
    def test_retired_spec_field_in_journal(self, tmp_path, field, value,
                                           replays):
        # a journal written before the field retired: the old default
        # replays the job, any other value counts as a torn line
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        job = queue.submit(make_job())
        queue.close()
        record = json.loads(journal.read_text())
        for cell in record["job"]["cells"]:
            cell["spec"][field] = value
        journal.write_text(json.dumps(record) + "\n")

        replayed = JobQueue(journal)
        if replays:
            assert replayed.torn_lines == 0
            assert replayed.get(job.job_id).cells == job.cells
            assert replayed.claim().job_id == job.job_id
        else:
            assert replayed.torn_lines == 1
            assert replayed.jobs() == []

    def test_seq_continues_after_replay(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        first = queue.submit(make_job())
        queue.close()

        replayed = JobQueue(journal)
        second = replayed.submit(make_job(seed=2))
        assert second.seq > first.seq


class TestTelemetry:
    def test_queue_depth_gauge(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        queue = JobQueue(telemetry=telemetry)
        queue.submit(make_job())
        assert telemetry.gauges["service.queue_depth"].value == 1
        queue.claim()
        assert telemetry.gauges["service.queue_depth"].value == 0


def test_memory_only_queue_survives_nothing(tmp_path):
    queue = JobQueue()
    queue.submit(make_job())
    assert queue.journal_path is None


def test_spec_payload_round_trips_exactly():
    spec = tiny_spec(sharing="shared-8", policy="rr-aff")
    job = Job.create([(("only",), spec)])
    clone = Job.from_dict(job.to_dict())
    assert clone.cells[0][1] == spec
    assert clone.cells[0][0] == ("only",)
