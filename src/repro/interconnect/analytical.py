"""Fast contention-aware mesh latency model.

This is the interconnect model on the simulator's hot path.  Each
unidirectional mesh link is a FIFO server with a one-cycle-per-flit
service time; a message's head flit pays the 3-stage router pipeline
plus one link-traversal cycle per hop, queueing behind earlier traffic
on every link it crosses, and the tail adds ``flits - 1`` serialization
cycles at the destination.

The model reproduces the congestion phenomena the paper attributes to
scheduling policy — affinity concentrating a workload's coherence
traffic on a few links (hotspots) versus round robin spreading it — at
a tiny fraction of the cost of flit-level simulation.  The flit-level
model in :mod:`repro.interconnect.network` is used to calibrate the
per-hop constants (see ``benchmarks/test_noc_calibration.py``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..sim.server import FifoServer
from .topology import MeshTopology

__all__ = ["AnalyticalMesh"]

#: head-flit latency per hop: 3 router pipeline stages + 1 link cycle.
#: The paper's routers are 3-stage with speculative VC/switch allocation,
#: so under low load a hop costs the full pipeline plus the link.
HOP_CYCLES = 4


class AnalyticalMesh:
    """Per-link FIFO queueing model over a :class:`MeshTopology`.

    Parameters
    ----------
    topology:
        The mesh.
    hop_cycles:
        Head latency per hop (router pipeline + link).
    track_tile_traffic:
        When True, per-source/destination traffic counters are kept for
        hotspot analysis (cheap; on by default).
    """

    def __init__(
        self,
        topology: MeshTopology,
        hop_cycles: int = HOP_CYCLES,
        track_tile_traffic: bool = True,
    ):
        self.topology = topology
        self.hop_cycles = hop_cycles
        self._links = [
            FifoServer(name=f"link/{src}->{dst}", service_time=1)
            for (src, dst) in topology.links()
        ]
        self.messages = 0
        self.total_latency = 0
        self.track_tile_traffic = track_tile_traffic
        self.tile_traffic: Dict[int, int] = {}
        # DOR routes are static: each (src, dst) pair's link servers
        # are looked up once, on its first message
        self._route_cache: Dict[int, Tuple[FifoServer, ...]] = {}
        self._route_key_shift = max(1, topology.num_tiles).bit_length()

    def traverse(self, src: int, dst: int, flits: int, now: int) -> int:
        """Send a ``flits``-flit message from ``src`` to ``dst`` at ``now``.

        Returns the traversal latency in cycles, queueing included (the
        hops and the queueing delay show in :attr:`total_hops` and
        :attr:`total_queueing`).  ``src == dst``
        costs nothing (same-tile communication stays inside the tile).
        """
        if src == dst:
            return 0
        key = (src << self._route_key_shift) | dst
        route = self._route_cache.get(key)
        if route is None:
            route = self._route_cache[key] = tuple(
                self._links[link_id]
                for link_id in self.topology.route_links(src, dst)
            )
        hop_cycles = self.hop_cycles
        head = now
        for link in route:
            # FifoServer.request(head, flits), inlined: a head at or
            # after busy_until finds the link idle; one before it
            # waits, clamped to the link's last arrival if earlier.
            stats = link.stats
            busy = link.busy_until
            if head >= busy:
                link.busy_until = head + flits
                stats.last_arrival = head
            else:
                arrival = stats.last_arrival
                if head > arrival:
                    arrival = head
                wait = busy - arrival
                link.busy_until = busy + flits
                stats.wait_cycles += wait
                stats.last_arrival = arrival
                head += wait
            stats.requests += 1
            stats.busy_cycles += flits
            head += hop_cycles
        latency = (head - now) + (flits - 1)
        self.messages += 1
        self.total_latency += latency
        if self.track_tile_traffic:
            tt = self.tile_traffic
            tt[src] = tt.get(src, 0) + flits
            tt[dst] = tt.get(dst, 0) + flits
        return latency

    def zero_load_latency(self, src: int, dst: int, flits: int) -> int:
        """Latency with no contention (for tests and calibration)."""
        if src == dst:
            return 0
        return self.topology.hops(src, dst) * self.hop_cycles + (flits - 1)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    @property
    def total_hops(self) -> int:
        """Hops of every message since the last reset (one link request
        per hop)."""
        return sum(link.stats.requests for link in self._links)

    @property
    def total_queueing(self) -> int:
        """Queueing cycles of every message since the last reset (the
        waits at every link)."""
        return sum(link.stats.wait_cycles for link in self._links)

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.messages if self.messages else 0.0

    @property
    def mean_queueing(self) -> float:
        return self.total_queueing / self.messages if self.messages else 0.0

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.messages if self.messages else 0.0

    def link_utilizations(self, horizon: int) -> List[float]:
        """Per-link busy fraction over ``horizon`` cycles."""
        return [link.stats.utilization(horizon) for link in self._links]

    def link_queue_depths(self, now: int) -> List[float]:
        """Per-link backlog at ``now`` in service times (telemetry)."""
        return [link.queue_depth(now) for link in self._links]

    def mean_link_queue_depth(self, now: int) -> float:
        """Mean link backlog at ``now`` across every mesh link."""
        depths = self.link_queue_depths(now)
        return sum(depths) / len(depths) if depths else 0.0

    def hottest_links(self, horizon: int, top: int = 5) -> List[tuple]:
        """The ``top`` busiest links as ``((src, dst), utilization)``."""
        pairs = list(self.topology.links())
        utils = self.link_utilizations(horizon)
        ranked = sorted(zip(pairs, utils), key=lambda item: -item[1])
        return ranked[:top]

    def reset(self) -> None:
        for link in self._links:
            link.reset()
        self.messages = 0
        self.total_latency = 0
        self.tile_traffic.clear()
