"""Coherence and conservation invariants after whole reference runs.

The chip's unit tests drive single accesses; these run two complete
reference-engine cells and then cross-check the machine state they
leave behind:

* the directory against the blocks actually resident in each L2 domain
  (:meth:`Chip.check_coherence_invariants`);
* inclusion: every private L0 block is in its L1, every private L1
  block is in the domain's L2, and the L2 line's sharer mask names
  every member core holding it;
* the per-VM conservation identities of the result (every measured
  reference is a read or a write, every L1 miss is an L2 hit, a peer
  transfer or an L2 miss, every L2 miss is fetched from a remote cache
  or from memory).

The cells are an over-committed diurnal-web scenario under the
adaptive scheduler (churn, migrations, context switches) and TPC-H on
two-core domains, whose migratory writes take the upgrade, dirty
cache-to-cache and intra-domain peer-transfer paths.
"""

import pytest

from repro.caches.hierarchy import decode_line
from repro.core import experiment
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.machine.chip import Chip

CELLS = {
    "diurnal-web/adaptive": dict(
        mix="scn-diurnal-web", scenario="diurnal-web", sharing="shared-4",
        slots_per_core=2, sched_policy="adaptive", sched_epoch=10_000),
    "iso-tpch/shared-2": dict(mix="iso-tpch", sharing="shared-2"),
}


@pytest.fixture
def chips(monkeypatch):
    """Every chip built while the test runs, in construction order."""
    built = []

    class RecordingChip(Chip):
        def __init__(self, config):
            super().__init__(config)
            built.append(self)

    monkeypatch.setattr(experiment, "Chip", RecordingChip)
    return built


def run_cell(name, chips):
    spec = ExperimentSpec(measured_refs=800, warmup_refs=300, seed=5,
                          engine_mode="reference", **CELLS[name])
    result = run_experiment(spec, use_cache=False)
    assert len(chips) == 1
    return result, chips[0]


def check_inclusion(chip):
    for domain in chip.domains:
        for slot, stack in enumerate(domain.stacks):
            if stack is None:
                continue
            l0 = {block for block, _ in stack.l0.contents()}
            l1 = {block for block, _ in stack.l1.contents()}
            assert l0 <= l1, f"core {stack.core_id}: L0 blocks missing from L1"
            for block in l1:
                code = domain.peek(block)
                assert code is not None, (
                    f"core {stack.core_id} holds {block:#x} outside its L2")
                assert decode_line(code).l1_mask >> slot & 1, (
                    f"L2 line {block:#x} does not list core {stack.core_id}")


def check_conservation(result):
    for vm in result.vm_metrics:
        assert vm.refs == vm.reads + vm.writes
        assert vm.l1_misses == vm.l2_hits + vm.l2_peer_transfers + vm.l2_misses
        assert vm.l2_misses == vm.c2c_clean + vm.c2c_dirty + vm.memory_fetches
        assert vm.cycles > 0
    assert result.final_time == max(vm.cycles for vm in result.vm_metrics)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_directory_and_inclusion_hold_after_a_run(name, chips):
    result, chip = run_cell(name, chips)
    chip.check_coherence_invariants()
    check_inclusion(chip)
    check_conservation(result)


def test_write_paths_were_exercised(chips):
    result, chip = run_cell("iso-tpch/shared-2", chips)
    assert chip.upgrade_transactions > 0
    assert chip.intra_domain_transfers > 0
    assert sum(vm.c2c_dirty for vm in result.vm_metrics) > 0
    assert sum(vm.writes for vm in result.vm_metrics) > 0


def test_overcommit_cell_migrated_under_a_load_curve(chips):
    result, chip = run_cell("diurnal-web/adaptive", chips)
    assert result.sched["migrations"] > 0
    assert result.scenario["load_adjustments"]
    assert chip.accesses >= sum(vm.refs for vm in result.vm_metrics)
