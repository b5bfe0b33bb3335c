"""Property-based whole-chip invariants under random traffic."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.coherence.directory import decode_entry
from repro.machine.chip import Chip
from repro.machine.config import MachineConfig, SharingDegree
from repro.sim.records import HitLevel


def build_chip(sharing):
    config = MachineConfig(sharing=SharingDegree.from_name(sharing))
    return Chip(config.scaled(1 / 16))


@st.composite
def traffic(draw):
    n = draw(st.integers(50, 400))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    cores = rng.integers(0, 16, n)
    blocks = rng.integers(0, 2000, n)
    writes = rng.random(n) < 0.3
    return list(zip(cores.tolist(), blocks.tolist(), writes.tolist()))


class TestChipInvariantsUnderRandomTraffic:
    @given(ops=traffic(), sharing=st.sampled_from(
        ["private", "shared-2", "shared-4", "shared"]))
    @settings(max_examples=20, deadline=None)
    def test_latency_components_always_sum(self, ops, sharing):
        chip = build_chip(sharing)
        now = 0
        for core, block, write in ops:
            now += 25
            r = chip.access(core, block, write, now)
            assert (r.cache_cycles + r.network_cycles + r.directory_cycles
                    + r.memory_cycles) == r.latency
            assert r.latency >= 1

    @given(ops=traffic(), sharing=st.sampled_from(
        ["private", "shared-4", "shared"]))
    @settings(max_examples=15, deadline=None)
    def test_directory_matches_caches(self, ops, sharing):
        chip = build_chip(sharing)
        now = 0
        for core, block, write in ops:
            now += 25
            chip.access(core, block, write, now)
        chip.check_coherence_invariants()

    @given(ops=traffic())
    @settings(max_examples=15, deadline=None)
    def test_inclusion_holds_everywhere(self, ops):
        """Any privately-cached block is present in its domain's L2."""
        chip = build_chip("shared-4")
        now = 0
        for core, block, write in ops:
            now += 25
            chip.access(core, block, write, now)
        for core, stack in enumerate(chip.stacks):
            domain = chip.domains[chip.domain_of_core(core)]
            for cache in (stack.l0, stack.l1):
                for block, _line in cache.contents():
                    assert domain.peek(block) is not None, (
                        f"core {core} caches block {block} not in its L2"
                    )

    @given(ops=traffic())
    @settings(max_examples=10, deadline=None)
    def test_rereads_never_slower_than_cold_path(self, ops):
        """After any traffic, an immediate re-access by the same core
        hits its private caches."""
        chip = build_chip("shared-4")
        now = 0
        for core, block, write in ops:
            now += 25
            chip.access(core, block, write, now)
        core, block, _write = ops[-1]
        result = chip.access(core, block, False, now + 1000)
        assert result.level in (HitLevel.L0, HitLevel.L1)

    @given(ops=traffic())
    @settings(max_examples=10, deadline=None)
    def test_occupancy_bounded_by_capacity(self, ops):
        chip = build_chip("shared-2")
        now = 0
        for core, block, write in ops:
            now += 25
            chip.access(core, block, write, now)
        capacity = chip.domains[0].cache.geometry.num_lines
        for domain_counts in chip.l2_snapshot_by_vm():
            assert sum(domain_counts.values()) <= capacity


class TestWriteSemantics:
    def test_write_then_remote_read_sees_dirty_transfer(self):
        """Functional read-after-remote-write: the modified copy is the
        one that travels."""
        chip = build_chip("shared-4")
        chip.access(0, 77, True, 0)
        r = chip.access(15, 77, False, 1000)  # far corner, other domain
        assert r.level == HitLevel.C2C_DIRTY

    def test_two_writers_serialize_ownership(self):
        chip = build_chip("shared-4")
        chip.access(0, 77, True, 0)
        chip.access(15, 77, True, 1000)
        entry = decode_entry(chip.directory.peek(77))
        assert entry.owner == chip.domain_of_core(15)
        assert bin(entry.sharers).count("1") == 1
        chip.check_coherence_invariants()

    def test_writeback_traffic_on_dirty_eviction(self):
        """Stream enough dirty blocks through one small domain to force
        dirty evictions; each must reach a memory controller."""
        chip = build_chip("private")
        lines = chip.domains[0].cache.geometry.num_lines
        now = 0
        for i in range(lines * 3):
            now += 30
            chip.access(0, i, True, now)
        assert chip.memory.total_writebacks > 0
