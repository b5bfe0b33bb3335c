"""Durable priority job queue for the simulation service.

A :class:`Job` is a batch of experiment cells — ``(key, spec)`` pairs,
the same shape :class:`~repro.core.executor.SweepExecutor` consumes —
plus submission metadata (priority, client, attempts).  The
:class:`JobQueue` orders pending jobs by ``(priority, submission
order)`` and records every state transition in an append-only JSONL
*journal*, so a service process killed at any instant can rebuild its
queue on restart:

* ``done`` and ``quarantined`` jobs replay into their terminal state;
* ``submitted``, ``running``, and ``failed`` jobs re-enqueue — a crash
  mid-simulation simply costs the lost attempt (results are
  deterministic and store-deduplicated, so a re-run of a half-finished
  job re-simulates only the cells that never reached the store);
* a torn trailing line (the write the crash interrupted) is skipped
  and counted, never fatal; so is a job whose spec no longer loads (a
  retired spec field set away from its old default).

The queue is synchronous and not thread-safe by itself; the service
confines it to the scheduler's event loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.experiment import ExperimentSpec, RunPlan, plan, spec_from_dict
from ..core.store import spec_key
from ..errors import ConfigurationError, ServiceError

__all__ = ["JOURNAL_SCHEMA_VERSION", "JobState", "Job", "JobQueue",
           "job_key_of"]

JOURNAL_SCHEMA_VERSION = 1
"""Version stamp on every journal line; unknown versions are skipped."""


class JobState:
    """The job lifecycle (see ``docs/service.md`` for the state machine).

    ``submitted -> running -> done`` is the happy path; a failing run
    goes ``running -> failed -> submitted`` (retry with backoff) until
    the attempt budget is spent, then ``failed -> quarantined``.
    """

    SUBMITTED = "submitted"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    QUARANTINED = "quarantined"

    ALL = (SUBMITTED, RUNNING, DONE, FAILED, QUARANTINED)
    TERMINAL = frozenset({DONE, QUARANTINED})


def job_key_of(cells: list) -> str:
    """Content identity of a job: a digest over its cells' spec keys
    (each cell holds a spec or its plan).

    Two jobs that request the same set of experiments (in any order,
    under any cell labels) hash identically — this is what the
    scheduler dedups and coalesces on.
    """
    keys = sorted(spec_key(spec) for _key, spec in cells)
    digest = hashlib.sha256("\n".join(keys).encode("ascii"))
    return digest.hexdigest()


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


@dataclass
class Job:
    """One submitted batch of experiment cells and its accounting."""

    job_id: str
    cells: List[Tuple[tuple, ExperimentSpec]]
    priority: int = 10
    client: str = "anon"
    state: str = JobState.SUBMITTED
    attempts: int = 0
    error: Optional[str] = None
    seq: int = 0
    job_key: str = ""
    coalesced_with: Optional[str] = None
    result_keys: List[str] = field(default_factory=list)
    cells_cached: int = 0
    cells_simulated: int = 0
    trace: Optional[str] = None
    """Incoming ``traceparent`` context of the submit, if traced."""
    _plans: Optional[List[Tuple[tuple, RunPlan]]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.cells:
            raise ServiceError("a job needs at least one cell")
        if not self.job_key:
            self.job_key = job_key_of(self.planned_cells())

    def planned_cells(self) -> List[Tuple[tuple, RunPlan]]:
        """The cells with each spec planned, and so keyed, once: a new
        job plans at creation (refusing a spec the library refuses); a
        journal-replayed one on first use."""
        if self._plans is None:
            self._plans = [(key, plan(spec)) for key, spec in self.cells]
        return self._plans

    @classmethod
    def create(
        cls,
        cells: List[Tuple[tuple, ExperimentSpec]],
        priority: int = 10,
        client: str = "anon",
    ) -> "Job":
        return cls(job_id=new_job_id(), cells=list(cells),
                   priority=priority, client=client)

    @property
    def done(self) -> bool:
        return self.state in JobState.TERMINAL

    # -- codecs --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON form (journal lines and API responses)."""
        return {
            "job_id": self.job_id,
            "cells": [
                {"key": list(key), "spec": dataclasses.asdict(spec)}
                for key, spec in self.cells
            ],
            "priority": self.priority,
            "client": self.client,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "seq": self.seq,
            "job_key": self.job_key,
            "coalesced_with": self.coalesced_with,
            "result_keys": list(self.result_keys),
            "cells_cached": self.cells_cached,
            "cells_simulated": self.cells_simulated,
            "trace": self.trace,
        }

    def summary(self) -> dict:
        """The API view: :meth:`to_dict` without the spec payloads."""
        payload = self.to_dict()
        payload["cells"] = len(self.cells)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        cells = [
            (tuple(cell["key"]), spec_from_dict(cell["spec"]))
            for cell in payload["cells"]
        ]
        return cls(
            job_id=payload["job_id"],
            cells=cells,
            priority=payload.get("priority", 10),
            client=payload.get("client", "anon"),
            state=payload.get("state", JobState.SUBMITTED),
            attempts=payload.get("attempts", 0),
            error=payload.get("error"),
            seq=payload.get("seq", 0),
            job_key=payload.get("job_key", ""),
            coalesced_with=payload.get("coalesced_with"),
            result_keys=list(payload.get("result_keys", [])),
            cells_cached=payload.get("cells_cached", 0),
            cells_simulated=payload.get("cells_simulated", 0),
            trace=payload.get("trace"),
        )


class JobQueue:
    """Priority queue of jobs with an optional crash-safe journal.

    Parameters
    ----------
    journal:
        Path of the append-only JSONL journal; ``None`` keeps the queue
        memory-only (it then survives nothing, which is fine for tests
        and embedded use).  An existing journal is replayed on
        construction — see :attr:`replayed` / :attr:`recovered`.
    telemetry:
        Optional telemetry hub; mirrors queue depth into the
        ``service.queue_depth`` gauge.
    """

    def __init__(self, journal: Optional[Union[str, Path]] = None,
                 telemetry=None):
        if telemetry is None:
            from ..obs.telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.telemetry = telemetry
        self.journal_path = Path(journal) if journal is not None else None
        self._jobs: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = 0
        self._journal_handle = None
        self.replayed = 0
        """Journal lines applied during replay."""
        self.recovered = 0
        """Jobs re-enqueued by replay (were submitted/running/failed)."""
        self.torn_lines = 0
        """Corrupt journal lines skipped during replay."""
        if self.journal_path is not None and self.journal_path.exists():
            self._replay()

    # -- submission / claiming -----------------------------------------

    def submit(self, job: Job) -> Job:
        """Enqueue ``job`` (journaled); returns it with ``seq`` set."""
        if job.job_id in self._jobs:
            raise ServiceError(f"duplicate job id {job.job_id!r}")
        self._seq += 1
        job.seq = self._seq
        job.state = JobState.SUBMITTED
        self._jobs[job.job_id] = job
        self._append({"event": "submit", "job": job.to_dict()})
        if job.coalesced_with is None:
            heapq.heappush(self._heap, (job.priority, job.seq, job.job_id))
        self._update_depth()
        return job

    def claim(self) -> Optional[Job]:
        """Pop the highest-priority pending job and mark it running.

        Returns ``None`` when nothing is pending.  Claiming counts an
        attempt.
        """
        while self._heap:
            _prio, _seq, job_id = heapq.heappop(self._heap)
            job = self._jobs.get(job_id)
            if job is None or job.state != JobState.SUBMITTED:
                continue  # stale heap entry (job was requeued/completed)
            job.state = JobState.RUNNING
            job.attempts += 1
            self._append_update(job)
            self._update_depth()
            return job
        return None

    # -- state transitions ---------------------------------------------

    def mark_done(self, job_id: str, result_keys: List[str],
                  cells_cached: int, cells_simulated: int) -> Job:
        job = self._require(job_id)
        job.state = JobState.DONE
        job.error = None
        job.result_keys = list(result_keys)
        job.cells_cached = cells_cached
        job.cells_simulated = cells_simulated
        self._append_update(job)
        return job

    def mark_failed(self, job_id: str, error: str) -> Job:
        job = self._require(job_id)
        job.state = JobState.FAILED
        job.error = error
        self._append_update(job)
        return job

    def requeue(self, job_id: str) -> Job:
        """Put a failed job back in the pending heap (retry path)."""
        job = self._require(job_id)
        job.state = JobState.SUBMITTED
        self._append_update(job)
        heapq.heappush(self._heap, (job.priority, job.seq, job.job_id))
        self._update_depth()
        return job

    def quarantine(self, job_id: str, error: str) -> Job:
        """Poison a job: no further retries, terminal state."""
        job = self._require(job_id)
        job.state = JobState.QUARANTINED
        job.error = error
        self._append_update(job)
        return job

    # -- inspection ----------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job in submission order."""
        return sorted(self._jobs.values(), key=lambda j: j.seq)

    @property
    def pending_count(self) -> int:
        return sum(1 for j in self._jobs.values()
                   if j.state == JobState.SUBMITTED
                   and j.coalesced_with is None)

    @property
    def running_count(self) -> int:
        return sum(1 for j in self._jobs.values()
                   if j.state == JobState.RUNNING)

    def close(self) -> None:
        if self._journal_handle is not None:
            self._journal_handle.close()
            self._journal_handle = None

    # -- journal internals ---------------------------------------------

    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def _append_update(self, job: Job) -> None:
        self._append({
            "event": "update",
            "job_id": job.job_id,
            "state": job.state,
            "attempts": job.attempts,
            "error": job.error,
            "result_keys": list(job.result_keys),
            "cells_cached": job.cells_cached,
            "cells_simulated": job.cells_simulated,
        })

    def _append(self, record: dict) -> None:
        if self.journal_path is None:
            return
        if self._journal_handle is None:
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._journal_handle = open(self.journal_path, "a")
        record = dict(record, schema=JOURNAL_SCHEMA_VERSION)
        self._journal_handle.write(
            json.dumps(record, separators=(",", ":")) + "\n")
        self._journal_handle.flush()
        os.fsync(self._journal_handle.fileno())

    def _replay(self) -> None:
        """Rebuild queue state from the journal (constructor path)."""
        for raw in self.journal_path.read_text().splitlines():
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
                if record.get("schema") != JOURNAL_SCHEMA_VERSION:
                    raise ValueError("unknown journal schema")
                event = record["event"]
                if event == "submit":
                    job = Job.from_dict(record["job"])
                elif event == "update":
                    job = self._jobs[record["job_id"]]
                else:
                    raise ValueError(f"unknown event {event!r}")
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    ConfigurationError):
                self.torn_lines += 1
                continue
            if event == "submit":
                self._jobs[job.job_id] = job
                self._seq = max(self._seq, job.seq)
            else:
                job.state = record["state"]
                job.attempts = record.get("attempts", job.attempts)
                job.error = record.get("error")
                job.result_keys = list(record.get("result_keys", []))
                job.cells_cached = record.get("cells_cached", 0)
                job.cells_simulated = record.get("cells_simulated", 0)
            self.replayed += 1
        # Non-terminal jobs lost their process; re-enqueue them.  A
        # coalesced follower re-enqueues standalone (its primary may
        # have finished in the lost process without journaling it).
        for job in self.jobs():
            if job.state in JobState.TERMINAL:
                continue
            job.state = JobState.SUBMITTED
            job.coalesced_with = None
            heapq.heappush(self._heap, (job.priority, job.seq, job.job_id))
            self.recovered += 1
        self._update_depth()

    def _update_depth(self) -> None:
        self.telemetry.gauge("service.queue_depth").set(self.pending_count)
