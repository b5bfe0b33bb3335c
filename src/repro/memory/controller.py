"""Memory controllers and the off-chip memory system.

Table III fixes uncontended memory latency at 150 cycles.  The paper
stresses that cache thrashing "spills over ... and puts additional
pressure on the memory controllers", so contention matters.  Each
controller models two queueing stages:

* **banks** — DRAM bank groups interleaved by block address; a bank is
  occupied for a row cycle per access, so same-bank bursts serialize
  while different-bank accesses overlap (bank-level parallelism);
* **channel** — the shared data bus; occupied for one 64-byte burst
  per transfer.

Controllers are placed at mesh tiles so distance is part of observed
latency, and blocks interleave across controllers so load spreads the
way a real physical address map would spread it.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigurationError
from ..sim.server import FifoServer

__all__ = [
    "MemoryController",
    "MemorySystem",
    "DEFAULT_MEMORY_LATENCY",
    "DEFAULT_BANKS",
]

DEFAULT_MEMORY_LATENCY = 150
"""Uncontended access latency in cycles (Table III)."""

DEFAULT_BANKS = 8
"""DRAM banks per controller."""

#: cycles a bank is occupied per access (row activate + column + precharge)
DEFAULT_BANK_OCCUPANCY = 36

#: cycles the channel is occupied per 64-byte burst
DEFAULT_CHANNEL_OCCUPANCY = 8


class MemoryController:
    """One memory channel (with banked DRAM behind it) at a mesh tile."""

    def __init__(
        self,
        controller_id: int,
        tile: int,
        base_latency: int = DEFAULT_MEMORY_LATENCY,
        num_banks: int = DEFAULT_BANKS,
        bank_occupancy: int = DEFAULT_BANK_OCCUPANCY,
        channel_occupancy: int = DEFAULT_CHANNEL_OCCUPANCY,
    ):
        if base_latency <= 0:
            raise ConfigurationError("memory latency must be positive")
        if num_banks <= 0:
            raise ConfigurationError("need at least one bank")
        self.controller_id = controller_id
        self.tile = tile
        self.base_latency = base_latency
        self.num_banks = num_banks
        self.banks = [
            FifoServer(name=f"mc{controller_id}/bank{b}",
                       service_time=bank_occupancy)
            for b in range(num_banks)
        ]
        self.channel = FifoServer(
            name=f"mc{controller_id}/channel", service_time=channel_occupancy
        )
        self.reads = 0
        self.writebacks = 0

    def _bank_for(self, block: int) -> FifoServer:
        return self.banks[(block >> 4) % self.num_banks]

    def access(self, now: int, block: int = 0) -> int:
        """A demand read/fetch: returns its latency in cycles, the bank
        and channel queueing plus :attr:`base_latency`."""
        bank_wait = self._bank_for(block).request(now)
        channel_wait = self.channel.request(now + bank_wait)
        self.reads += 1
        return bank_wait + channel_wait + self.base_latency

    def writeback(self, now: int, block: int = 0) -> None:
        """A dirty eviction: consumes bank and channel bandwidth, off
        the requester's critical path (no latency returned)."""
        bank_wait = self._bank_for(block).request(now)
        self.channel.request(now + bank_wait)
        self.writebacks += 1

    @property
    def accesses(self) -> int:
        return self.reads + self.writebacks

    def queue_depth(self, now: int) -> float:
        """Backlog at ``now``: channel depth plus the mean bank depth.

        Expressed in service times (see
        :meth:`repro.sim.server.FifoServer.queue_depth`); read-only,
        used by telemetry probes.
        """
        bank_depth = sum(b.queue_depth(now) for b in self.banks)
        return self.channel.queue_depth(now) + bank_depth / len(self.banks)

    def utilization(self, horizon: int) -> float:
        """Channel busy fraction (the bandwidth bottleneck)."""
        return self.channel.stats.utilization(horizon)

    def bank_utilizations(self, horizon: int) -> List[float]:
        return [bank.stats.utilization(horizon) for bank in self.banks]


class MemorySystem:
    """All memory controllers of the chip, block-interleaved."""

    def __init__(self, controllers: List[MemoryController]):
        if not controllers:
            raise ConfigurationError("need at least one memory controller")
        self.controllers = controllers

    @classmethod
    def at_tiles(
        cls,
        tiles: List[int],
        base_latency: int = DEFAULT_MEMORY_LATENCY,
        num_banks: int = DEFAULT_BANKS,
        bank_occupancy: int = DEFAULT_BANK_OCCUPANCY,
        channel_occupancy: int = DEFAULT_CHANNEL_OCCUPANCY,
    ) -> "MemorySystem":
        return cls(
            [
                MemoryController(
                    idx,
                    tile,
                    base_latency=base_latency,
                    num_banks=num_banks,
                    bank_occupancy=bank_occupancy,
                    channel_occupancy=channel_occupancy,
                )
                for idx, tile in enumerate(tiles)
            ]
        )

    def controller_for(self, block: int) -> MemoryController:
        """Controller owning ``block`` (simple block interleaving)."""
        return self.controllers[block % len(self.controllers)]

    @property
    def total_reads(self) -> int:
        return sum(mc.reads for mc in self.controllers)

    @property
    def total_writebacks(self) -> int:
        return sum(mc.writebacks for mc in self.controllers)

    def utilizations(self, horizon: int) -> List[float]:
        return [mc.utilization(horizon) for mc in self.controllers]

    def queue_depths(self, now: int) -> List[float]:
        """Per-controller backlog at ``now`` (telemetry probes)."""
        return [mc.queue_depth(now) for mc in self.controllers]

    def mean_queue_depth(self, now: int) -> float:
        """Mean controller backlog at ``now``."""
        depths = self.queue_depths(now)
        return sum(depths) / len(depths)
