"""A finished cell leaves nothing for the cyclic garbage collector.

L2 lines and directory entries are packed ints, so the L2 set dicts and
the directory's entry dict hold only ints and the collector does not
track them.  A finished cell holds no reference cycles either, so its
chip is freed by reference counting as soon as ``run_experiment``
returns: no gen-2 collection has to walk a dead cell's machine state.
"""

import gc
import weakref

import pytest

from repro.core import experiment
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.machine.chip import Chip

CELLS = {
    "mix1/reference": dict(mix="mix1", engine_mode="reference"),
    "mix1/batched": dict(mix="mix1", engine_mode="batched"),
    "diurnal-web/adaptive": dict(
        mix="scn-diurnal-web", scenario="diurnal-web", slots_per_core=2,
        sched_policy="adaptive", sched_epoch=10_000,
        engine_mode="reference"),
}


def run_cell(name):
    spec = ExperimentSpec(measured_refs=300, warmup_refs=100, seed=7,
                          **CELLS[name])
    run_experiment(spec, use_cache=False)


def watch_chips(monkeypatch, on_build):
    class WatchedChip(Chip):
        def __init__(self, config):
            super().__init__(config)
            on_build(self)

    monkeypatch.setattr(experiment, "Chip", WatchedChip)


def test_packed_machine_state_is_untracked(monkeypatch):
    chips = []
    watch_chips(monkeypatch, chips.append)
    run_cell("mix1/reference")
    (chip,) = chips
    sets = [cache_set for domain in chip.domains for cache_set in domain._sets]
    assert any(sets), "the cell filled no L2 line"
    assert not any(gc.is_tracked(cache_set) for cache_set in sets)
    assert chip.directory._entries
    assert not gc.is_tracked(chip.directory._entries)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_finished_cell_is_freed_by_reference_counting(name, monkeypatch):
    refs = []

    def watch(chip):
        refs.append(weakref.ref(chip))
        refs.extend(weakref.ref(domain) for domain in chip.domains)
        refs.append(weakref.ref(chip.directory))

    watch_chips(monkeypatch, watch)
    gc.collect()
    gc.disable()
    try:
        run_cell(name)
        assert refs
        alive = [ref() for ref in refs if ref() is not None]
        assert not alive, f"still alive after the run: {alive}"
    finally:
        gc.enable()
