"""Fast contention-aware mesh latency model.

This is the interconnect model on the simulator's hot path.  Each
unidirectional mesh link is a FIFO server with a one-cycle-per-flit
service time; a message's head flit pays the 3-stage router pipeline
plus one link-traversal cycle per hop, queueing behind earlier traffic
on every link it crosses, and the tail adds ``flits - 1`` serialization
cycles at the destination.  A link's state is two ints (the cycle it
is busy until and its last arrival, the two registers of
:class:`repro.sim.server.FifoServer`); traffic is counted per route as
``[messages, flits]``, from which hops, utilisation and tile traffic
are derived on read.

The model reproduces the congestion phenomena the paper attributes to
scheduling policy — affinity concentrating a workload's coherence
traffic on a few links (hotspots) versus round robin spreading it — at
a tiny fraction of the cost of flit-level simulation.  The flit-level
model in :mod:`repro.interconnect.network` is used to calibrate the
per-hop constants (see ``benchmarks/test_noc_calibration.py``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
    """

    def __init__(self, topology: MeshTopology, hop_cycles: int = HOP_CYCLES):
        self.topology = topology
        self.hop_cycles = hop_cycles
        self._key_shift = max(1, topology.num_tiles).bit_length()
        self.reset()

    def traverse(self, src: int, dst: int, flits: int, now: int) -> int:
        """Send a ``flits``-flit message from ``src`` to ``dst`` at ``now``.

        Returns the traversal latency in cycles, queueing included (the
        hops and the queueing delay show in :attr:`total_hops` and
        :attr:`total_queueing`).  ``src == dst``
        costs nothing (same-tile communication stays inside the tile).
        """
        if src == dst:
            return 0
        key = (src << self._key_shift) | dst
        route = self._routes.get(key)
        if route is None:
            # DOR routes are static: a pair's links are looked up once,
            # on its first message
            route = self._routes[key] = (
                tuple(self.topology.route_links(src, dst)), [0, 0])
        links, account = route
        busy = self._busy
        last = self._last
        hop_cycles = self.hop_cycles
        head = now
        for link in links:
            # FifoServer.request(head, flits), inlined: a head at or
            # after busy_until finds the link idle; one before it
            # waits, clamped to the link's last arrival if earlier.
            until = busy[link]
            if head >= until:
                busy[link] = head + flits
                last[link] = head
            else:
                arrival = last[link]
                if head > arrival:
                    arrival = head
                busy[link] = until + flits
                last[link] = arrival
                head += until - arrival
            head += hop_cycles
        account[0] += 1
        account[1] += flits
        latency = (head - now) + (flits - 1)
        self.total_latency += latency
        return latency

    def zero_load_latency(self, src: int, dst: int, flits: int) -> int:
        """Latency with no contention (for tests and calibration)."""
        if src == dst:
            return 0
        return self.topology.hops(src, dst) * self.hop_cycles + (flits - 1)

    # ------------------------------------------------------------------
    # statistics, derived from the per-route accounts
    # ------------------------------------------------------------------

    @property
    def messages(self) -> int:
        """Messages sent since the last reset (same-tile ones excluded)."""
        return sum(account[0] for _links, account in self._routes.values())

    @property
    def total_hops(self) -> int:
        """Hops of every message since the last reset (one link request
        per hop)."""
        return sum(len(links) * account[0]
                   for links, account in self._routes.values())

    @property
    def total_queueing(self) -> int:
        """Queueing cycles of every message since the last reset: its
        latency beyond the zero-load latency of its route."""
        zero_load = sum(
            account[0] * (len(links) * self.hop_cycles - 1) + account[1]
            for links, account in self._routes.values())
        return self.total_latency - zero_load

    @property
    def tile_traffic(self) -> Dict[int, int]:
        """Flits sent from or to each tile since the last reset."""
        mask = (1 << self._key_shift) - 1
        traffic: Dict[int, int] = {}
        for key, (_links, account) in self._routes.items():
            for tile in (key >> self._key_shift, key & mask):
                traffic[tile] = traffic.get(tile, 0) + account[1]
        return traffic

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.messages if self.messages else 0.0

    @property
    def mean_queueing(self) -> float:
        return self.total_queueing / self.messages if self.messages else 0.0

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.messages if self.messages else 0.0

    def link_loads(self) -> List[Tuple[int, int]]:
        """Per-link ``(requests, busy_cycles)``: the messages and flits
        that crossed each link (one service cycle per flit)."""
        requests = [0] * len(self._busy)
        flits = [0] * len(self._busy)
        for links, (messages, sent) in self._routes.values():
            for link in links:
                requests[link] += messages
                flits[link] += sent
        return list(zip(requests, flits))

    def link_utilizations(self, horizon: int) -> List[float]:
        """Per-link busy fraction over ``horizon`` cycles."""
        if horizon <= 0:
            return [0.0] * len(self._busy)
        return [min(1.0, flits / horizon) for _requests, flits in self.link_loads()]

    def link_queue_depths(self, now: int) -> List[float]:
        """Per-link backlog at ``now`` in service times (telemetry)."""
        return [float(until - now) if until > now else 0.0
                for until in self._busy]

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
        """Idle every link and clear the traffic accounts."""
        num_links = self.topology.num_links
        self._busy: List[int] = [0] * num_links
        self._last: List[int] = [0] * num_links
        # (src << shift | dst) -> (link ids, [messages, flits])
        self._routes: Dict[int, Tuple[Tuple[int, ...], List[int]]] = {}
        self.total_latency = 0
