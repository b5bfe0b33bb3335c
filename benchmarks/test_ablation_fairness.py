"""Fairness ablation — way-quota partitioning (the conclusion's thesis).

The paper closes: "perhaps a guarantee of apparent workload isolation
... should feasibly extend from functional isolation into performance
isolation."  This bench implements that proposal — per-VM way quotas in
each shared L2 (fair cache partitioning, as in the paper's related
work, the ``static-equal`` QoS policy) — and measures it on the worst
interference case the paper identifies: SPECjbb sharing caches with
TPC-W under round robin (Mixes 7-9).
"""

import pytest

from _common import emit, mean, once, run
from repro.analysis.report import format_table

MIXES = ("mix7", "mix8", "mix9")


@pytest.fixture(scope="module")
def data():
    out = {}
    for mix in MIXES:
        out[(mix, "shared-lru")] = run(mix, policy="rr")
        out[(mix, "vm-quota")] = run(mix, policy="rr",
                                     qos_policy="static-equal")
    return out


def _jbb_miss_rate(result):
    return mean([vm.miss_rate for vm in result.metrics_for("specjbb")])


def _jbb_cycles(result):
    return mean([vm.cycles for vm in result.metrics_for("specjbb")])


def _tpcw_cycles(result):
    return mean([vm.cycles for vm in result.metrics_for("tpcw")])


def test_ablation_fairness(benchmark, data):
    def build():
        rows = []
        for mix in MIXES:
            free = data[(mix, "shared-lru")]
            fair = data[(mix, "vm-quota")]
            rows.append([
                mix,
                _jbb_miss_rate(free), _jbb_miss_rate(fair),
                _jbb_cycles(fair) / _jbb_cycles(free),
                _tpcw_cycles(fair) / _tpcw_cycles(free),
            ])
        return rows

    rows = once(benchmark, build)
    emit("ablation_fairness", format_table(
        ["Mix", "SPECjbb miss rate (LRU)", "SPECjbb miss rate (quota)",
         "SPECjbb cycles quota/LRU", "TPC-W cycles quota/LRU"],
        rows, title="Fairness ablation: per-VM way quotas under RR "
                    "(SPECjbb + TPC-W mixes)"))

    for mix, mr_free, mr_fair, jbb_ratio, tpcw_ratio in rows:
        # quotas must not hurt the victim workload
        assert mr_fair <= mr_free * 1.03, mix
        assert jbb_ratio <= 1.03, mix
        # and the cost shifts to (at worst) the aggressor
        assert tpcw_ratio < 1.30, mix
