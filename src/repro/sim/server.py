"""FIFO resource servers used for contention modelling.

The timing model is *timing-directed trace simulation*: the global event
loop processes references in global-time order, and every shared hardware
resource (an L2 bank, a mesh link, a memory channel) is modelled as a
FIFO server with a deterministic service time.  A request arriving at
time ``t`` waits until the server's ``busy_until`` clock, occupies it for
the service time, and experiences ``wait + service`` cycles of delay.

This is the standard queueing abstraction used by fast architectural
models; it reproduces the congestion phenomena the paper reports
(affinity scheduling creating interconnect hotspots, memory-controller
pressure from cache thrashing) without flit- or beat-level detail.  The
flit-level router in :mod:`repro.interconnect.router` is used to
calibrate the link service times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FifoServer", "ServerStats"]


@dataclass
class ServerStats:
    """Aggregate statistics for one :class:`FifoServer`."""

    requests: int = 0
    busy_cycles: int = 0
    wait_cycles: int = 0
    last_arrival: int = 0

    @property
    def mean_wait(self) -> float:
        """Average queueing delay per request, in cycles."""
        return self.wait_cycles / self.requests if self.requests else 0.0

    def utilization(self, horizon: int) -> float:
        """Fraction of ``horizon`` cycles the server was busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / horizon)


@dataclass
class FifoServer:
    """A single-queue, single-server resource with deterministic service.

    Parameters
    ----------
    name:
        Diagnostic label (e.g. ``"l2/domain0"`` or ``"link/5->6"``).
    service_time:
        Default occupancy per request, in cycles.

    Notes
    -----
    A ``busy_until`` register implements a FIFO M/D/1-style queue for
    arrivals in non-decreasing time.  The global event loop issues
    references in time order, but the messages a reference sends later
    in its life (the directory leg, a data reply, a memory access)
    reach their servers after a later-issued reference's first ones
    may have.  Such a regressed arrival is clamped to the server's last
    arrival: it queues behind every earlier request instead of slipping
    into an idle gap before them, so contention is approximate, not
    exact.  Regressed arrivals are common: on ``mix1`` at 1500 refs per
    thread (seed 1) they are 37% of mesh-link requests, 5.9% of L2-bank
    requests and 4.6% of memory requests.
    """

    name: str
    service_time: int
    busy_until: int = 0
    stats: ServerStats = field(default_factory=ServerStats)

    def request(self, now: int, service_time: int | None = None) -> int:
        """Occupy the server starting no earlier than ``now``.

        Returns the queueing *wait* in cycles (0 when the server is
        idle).  The caller adds its own service latency; the server
        tracks occupancy for utilization statistics.
        """
        if service_time is None:
            service_time = self.service_time
        stats = self.stats
        busy = self.busy_until
        # busy_until never precedes the last arrival, so a request at
        # or after it finds the server idle and is not a regressed one
        if now >= busy:
            wait = 0
            self.busy_until = now + service_time
        else:
            if now < stats.last_arrival:
                now = stats.last_arrival
            wait = busy - now
            self.busy_until = busy + service_time
            stats.wait_cycles += wait
        stats.requests += 1
        stats.busy_cycles += service_time
        stats.last_arrival = now
        return wait

    def peek_wait(self, now: int) -> int:
        """Queueing delay a request arriving at ``now`` would see."""
        wait = self.busy_until - now
        return wait if wait > 0 else 0

    def queue_depth(self, now: int) -> float:
        """Outstanding work at ``now`` in units of service times.

        0.0 when idle; 1.0 means one full service time of backlog.
        Read-only (telemetry probes call this between requests).
        """
        pending = self.busy_until - now
        if pending <= 0:
            return 0.0
        if self.service_time <= 0:
            return float(pending)
        return pending / self.service_time

    def reset(self) -> None:
        """Clear occupancy and statistics."""
        self.busy_until = 0
        self.stats = ServerStats()
