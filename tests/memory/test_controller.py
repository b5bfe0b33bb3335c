"""Tests for the banked memory controllers and the memory system."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.controller import (
    DEFAULT_MEMORY_LATENCY,
    MemoryController,
    MemorySystem,
)


class TestMemoryController:
    def test_uncontended_latency_is_table3(self):
        mc = MemoryController(0, tile=0)
        latency = mc.access(now=0, block=0)
        assert latency == DEFAULT_MEMORY_LATENCY == 150
        assert latency - mc.base_latency == 0

    def test_same_bank_serializes(self):
        mc = MemoryController(0, tile=0, bank_occupancy=36,
                              channel_occupancy=8)
        mc.access(now=0, block=0)
        latency = mc.access(now=0, block=0)  # same bank
        # the 36-cycle bank wait covers the channel's 8-cycle burst
        assert latency - mc.base_latency == 36
        assert latency == 36 + 150

    def test_different_banks_overlap(self):
        """Bank-level parallelism: only the channel serializes."""
        mc = MemoryController(0, tile=0, num_banks=8,
                              bank_occupancy=36, channel_occupancy=8)
        mc.access(now=0, block=0)
        latency = mc.access(now=0, block=16)  # next bank (block>>4 differs)
        assert latency - mc.base_latency == 8  # channel only

    def test_bank_mapping_interleaves(self):
        mc = MemoryController(0, tile=0, num_banks=4)
        banks = {mc._bank_for(block << 4).name for block in range(4)}
        assert len(banks) == 4

    def test_writeback_consumes_bandwidth(self):
        mc = MemoryController(0, tile=0, bank_occupancy=36,
                              channel_occupancy=8)
        mc.writeback(now=0, block=0)
        latency = mc.access(now=0, block=0)
        assert latency - mc.base_latency == 36
        assert mc.writebacks == 1 and mc.reads == 1
        assert mc.accesses == 2

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            MemoryController(0, tile=0, base_latency=0)
        with pytest.raises(ConfigurationError):
            MemoryController(0, tile=0, num_banks=0)

    def test_utilization_is_channel(self):
        mc = MemoryController(0, tile=0, channel_occupancy=10)
        mc.access(0, block=0)
        assert mc.utilization(horizon=20) == 0.5

    def test_bank_utilizations(self):
        mc = MemoryController(0, tile=0, num_banks=2, bank_occupancy=10)
        mc.access(0, block=0)
        utils = mc.bank_utilizations(horizon=10)
        assert utils[0] == 1.0 and utils[1] == 0.0


class TestMemorySystem:
    def test_block_interleaving(self):
        system = MemorySystem.at_tiles([0, 3, 12, 15])
        assert system.controller_for(0).controller_id == 0
        assert system.controller_for(1).controller_id == 1
        assert system.controller_for(4).controller_id == 0
        assert system.controller_for(7).tile == 15

    def test_totals(self):
        system = MemorySystem.at_tiles([0, 3])
        system.controller_for(0).access(0, block=0)
        system.controller_for(1).writeback(0, block=1)
        assert system.total_reads == 1
        assert system.total_writebacks == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MemorySystem([])

    def test_utilizations_list(self):
        system = MemorySystem.at_tiles([0, 3, 12, 15])
        assert len(system.utilizations(100)) == 4
