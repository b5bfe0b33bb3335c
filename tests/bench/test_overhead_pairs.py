"""The basket's QoS-overhead bench times identical simulations."""

import pytest

from repro.bench.basket import BenchContext, _same_simulation, run_basket
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.errors import ReproError


@pytest.mark.parametrize("bench,seconds", [
    ("qos-overhead", "qos_seconds"),
])
def test_quick_run_pairs_byte_identical_simulations(bench, seconds):
    (record,) = run_basket([bench], BenchContext(quick=True, refs=120))
    assert record.bench == bench
    assert record.metrics["plain_seconds"] > 0
    assert record.metrics[seconds] > 0
    assert record.metrics["overhead_ratio"] > 0


def test_a_pair_that_simulates_differently_is_refused():
    kw = dict(mix="mix7", sharing="shared", measured_refs=120,
              warmup_refs=60)
    one = run_experiment(ExperimentSpec(seed=1, **kw), use_cache=False)
    two = run_experiment(ExperimentSpec(seed=2, **kw), use_cache=False)
    _same_simulation(one, one, "nothing")
    with pytest.raises(ReproError, match="not byte-identical"):
        _same_simulation(one, two, "the seed")
