"""Determinism guarantees of the QoS layer.

Two properties are enforced:

* ``static-equal`` serializes byte-identically whatever its control
  epoch — the controller is attached and sensing windows close every
  epoch, but the simulation (and therefore the persisted result)
  cannot drift from the setup-time split a never-firing epoch keeps.
* dynamic controllers are reproducible: the same spec produces the
  same result, the same controller account, byte for byte.
"""

import json

import pytest

from repro.analysis.persist import result_to_dict
from repro.core.experiment import (
    ExperimentSpec,
    clear_result_cache,
    run_experiment,
)

KW = dict(mix="mix7", sharing="shared", policy="rr",
          measured_refs=800, warmup_refs=200, seed=7)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


def canonical(result, without_spec=False):
    payload = result_to_dict(result)
    if without_spec:
        payload = {k: v for k, v in payload.items() if k != "spec"}
    return json.dumps(payload, sort_keys=True)


class TestStaticEqualHoldsItsSplit:
    def test_byte_identical_across_control_epochs(self):
        frozen = run_experiment(
            ExperimentSpec(qos_policy="static-equal", qos_epoch=1 << 62,
                           **KW), use_cache=False)
        controlled = run_experiment(
            ExperimentSpec(qos_policy="static-equal", qos_epoch=2000, **KW),
            use_cache=False)
        # the control loop ran on one side only...
        assert frozen.qos["control_epochs"] == 0
        assert controlled.qos["control_epochs"] > 0
        assert controlled.qos["quota_adjustments"] == 0
        # ...and everything but the spec serializes identically
        assert canonical(frozen, without_spec=True) == \
            canonical(controlled, without_spec=True)

    def test_qos_account_excluded_from_the_codec(self):
        controlled = run_experiment(
            ExperimentSpec(qos_policy="static-equal", qos_epoch=2000, **KW),
            use_cache=False)
        assert controlled.qos is not None
        assert "qos" not in result_to_dict(controlled)


class TestDynamicControllersAreReproducible:
    def test_ucp_runs_are_identical_under_a_fixed_seed(self):
        spec = ExperimentSpec(qos_policy="ucp", qos_epoch=2000, **KW)
        first = run_experiment(spec, use_cache=False)
        second = run_experiment(spec, use_cache=False)
        assert first.qos == second.qos
        assert first.qos["quota_adjustments"] > 0  # it actually steered
        assert canonical(first) == canonical(second)

    def test_missrate_prop_runs_are_identical_under_a_fixed_seed(self):
        spec = ExperimentSpec(qos_policy="missrate-prop", qos_epoch=2000,
                              **KW)
        first = run_experiment(spec, use_cache=False)
        second = run_experiment(spec, use_cache=False)
        assert first.qos == second.qos
        assert canonical(first) == canonical(second)
