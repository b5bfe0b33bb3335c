"""Exception hierarchy for the ``repro`` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid machine, cache, workload, or experiment configuration."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state.

    This indicates a bug in the simulator (for example a coherence
    invariant violation), not a user mistake.
    """


class CoherenceError(SimulationError):
    """A cache-coherence invariant was violated."""


class SweepError(ReproError):
    """One or more cells of a sweep failed.

    The executor never aborts a grid on a cell failure; once every cell
    has been attempted, the sweep helpers raise this with the
    per-cell tracebacks in :attr:`failures` (keyed by axis-value
    tuple).
    """

    def __init__(self, failures):
        self.failures = dict(failures)
        cells = ", ".join(repr(key) for key in self.failures)
        first = next(iter(self.failures.values()), "")
        last_line = first.strip().splitlines()[-1] if first else ""
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed: {cells}"
            + (f" — first error: {last_line}" if last_line else "")
        )


class ServiceError(ReproError):
    """A simulation-service request or job failed.

    Raised by :class:`repro.service.client.ServiceClient` when the
    server rejects a request (with :attr:`status` carrying the HTTP
    status and :attr:`retry_after` the server's back-off hint, when
    given) and by service helpers when a job ends quarantined.
    """

    def __init__(self, message, status=None, retry_after=None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class WorkloadError(ReproError):
    """A workload profile or generator was misused or is inconsistent."""


class SchedulingError(ReproError):
    """A thread-to-core assignment could not be produced.

    Raised when a scheduling policy cannot place the requested threads on
    the requested machine (for example more runnable threads than cores,
    since the paper's methodology never over-commits the machine).
    """
