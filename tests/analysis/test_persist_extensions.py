"""Persistence round-trips for extension-feature runs.

The spec gained fields (over-commit, rebinding, phases, quotas); saved
results must round-trip them so `python -m repro compare` works across
feature configurations.
"""

import pytest

from repro.analysis.persist import load_result, save_result
from repro.core.experiment import ExperimentSpec, clear_result_cache, run_experiment

REFS = dict(measured_refs=400, warmup_refs=100, seed=1)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


@pytest.mark.parametrize("overrides", [
    dict(slots_per_core=2, policy="random"),
    dict(rebind="random", rebind_interval=20_000),
    dict(phase_plan="burst"),
    dict(qos_policy="static-equal", mix="mix7", policy="rr"),
    dict(vm_schedule="0,10000,20000,30000", mix="mixB"),
    dict(num_cores=64),
], ids=["overcommit", "rebind", "phases", "quota", "stagger", "bigmesh"])
def test_extension_round_trip(tmp_path, overrides):
    params = dict(mix="iso-tpch", **REFS)
    params.update(overrides)
    result = run_experiment(ExperimentSpec(**params))
    path = save_result(result, tmp_path / "r.json")
    rebuilt = load_result(path)
    assert rebuilt.spec == result.spec
    assert rebuilt.vm_metrics == result.vm_metrics
    assert rebuilt.occupancy == result.occupancy


def test_custom_mix_round_trip(tmp_path):
    from repro.core.mixes import Mix, register_mix
    from repro.errors import ConfigurationError

    try:
        register_mix(Mix("persist-duo", (("tpch", 1), ("specjbb", 1))))
    except ConfigurationError:
        pass
    result = run_experiment(ExperimentSpec(mix="persist-duo", **REFS))
    path = save_result(result, tmp_path / "r.json")
    rebuilt = load_result(path)
    # the mix definition travels with the file: no registry needed
    assert rebuilt.mix.components == (("tpch", 1), ("specjbb", 1))
