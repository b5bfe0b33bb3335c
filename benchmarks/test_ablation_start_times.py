"""Start-time ablation.

Section VIII: "Other methodological considerations, such as workload
start times deserve further exploration."  This bench staggers VM
start times within a homogeneous mix (VM ``i`` arrives at ``i *
stagger`` through ``vm_schedule``) and measures how much the paper's
aligned-start metrics shift — an estimate of the phase-alignment error
bar on the consolidated measurements.
"""

import pytest

from _common import emit, mean, once, run, staggered
from repro.analysis.report import format_table

STAGGERS = (0, 20_000, 80_000)


@pytest.fixture(scope="module")
def data():
    return {
        stagger: run("mixC", policy="rr",
                     vm_schedule=staggered("mixC", stagger))
        for stagger in STAGGERS
    }


def test_ablation_start_times(benchmark, data):
    def build():
        rows = []
        base = mean([vm.miss_rate for vm in data[0].vm_metrics])
        for stagger in STAGGERS:
            result = data[stagger]
            vms = result.vm_metrics
            cycles = [vm.cycles for vm in vms]
            rows.append([
                stagger,
                mean(cycles),
                max(cycles) - min(cycles),
                mean([vm.miss_rate for vm in vms]) / base,
            ])
        return rows

    rows = once(benchmark, build)
    emit("ablation_start_times", format_table(
        ["Stagger (cycles)", "Mean completion", "Completion spread",
         "Miss rate vs aligned"],
        rows, title="Start-time ablation (mixC, RR)"))

    aligned, small, large = rows
    # staggering spreads completions at least as wide as the stagger
    assert large[2] > aligned[2]
    # but the steady-state miss behaviour is robust to start times —
    # the paper's aligned-start methodology is not fragile
    for _stagger, _mean, _spread, rel_missrate in rows:
        assert 0.85 < rel_missrate < 1.15
