"""repro.service — simulation as a service.

A long-running job layer over the experiment machinery: submit batches
of :class:`~repro.core.experiment.ExperimentSpec` cells to a live
process over HTTP, share one warm
:class:`~repro.core.store.ResultStore` across every caller, and
survive crashes via a durable job journal.

The pieces (see ``docs/service.md``):

* :mod:`repro.service.jobs` — the priority :class:`JobQueue` and its
  crash-safe JSONL journal;
* :mod:`repro.service.scheduler` — the async :class:`JobScheduler`
  with store dedup, in-flight coalescing, bounded job concurrency,
  one process pool shared by every job's cells, exponential-backoff
  retries and poison-job quarantine;
* :mod:`repro.service.server` — the stdlib-asyncio HTTP API
  (:class:`ServiceServer`) with bounded-queue backpressure, per-client
  rate limiting, ``/metrics`` telemetry export, and graceful drain;
* :mod:`repro.service.client` — the synchronous
  :class:`ServiceClient` behind ``repro submit`` / ``repro jobs``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .client import ServiceClient
    from .jobs import Job, JobQueue, JobState, job_key_of
    from .ratelimit import TokenBucket
    from .scheduler import JobScheduler
    from .server import ServiceServer

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "client": ("ServiceClient",),
    "jobs": ("Job", "JobQueue", "JobState", "job_key_of"),
    "ratelimit": ("TokenBucket",),
    "scheduler": ("JobScheduler",),
    "server": ("ServiceServer",),
})
