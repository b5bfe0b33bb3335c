"""End-to-end QoS runs through the real experiment pipeline.

The acceptance case is the paper's own motivation (Section VII): on a
fully shared L2 under round-robin scheduling, the lone TPC-W VM of
Mix 7 is trampled by three SPECjbb aggressors.  A feedback controller
given a slowdown target between "uncontrolled" and "perfect" must
demonstrably pull the victim back toward its isolated performance.
"""

from dataclasses import replace

import pytest

from repro.core.experiment import (
    ExperimentSpec,
    clear_result_cache,
    run_experiment,
    spec_from_dict,
)
from repro.errors import ConfigurationError
from repro.qos.metrics import per_vm_slowdowns, qos_report


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


BASE = ExperimentSpec(mix="mix7", sharing="shared", policy="rr",
                      measured_refs=2000, warmup_refs=500, seed=1)


class TestTargetSlowdownProtectsTheVictim:
    def test_victim_slowdown_drops_vs_uncontrolled_run(self):
        free = run_experiment(BASE, use_cache=False)
        free_slowdowns = per_vm_slowdowns(free)
        victim = 3  # mix7's single TPC-W VM, flanked by 3x SPECjbb
        assert free.vm_metrics[victim].workload == "tpcw"
        assert free_slowdowns[victim] > 1.0

        # aim halfway between uncontrolled and perfect isolation
        target = 1.0 + (free_slowdowns[victim] - 1.0) / 2
        controlled = run_experiment(
            replace(BASE, qos_policy="target-slowdown", qos_target=target,
                    qos_epoch=5000),
            use_cache=False)
        held_slowdowns = per_vm_slowdowns(controlled)

        assert held_slowdowns[victim] < free_slowdowns[victim] - 0.005
        # the controller fought for the target and kept score
        assert controlled.qos["quota_adjustments"] > 0
        assert controlled.qos["target"] == target
        assert controlled.qos["control_epochs"] > 0
        assert str(victim) in controlled.qos["final_slowdown_estimates"]


class TestUcpEndToEnd:
    def test_ucp_repartitions_a_shared_domain(self):
        result = run_experiment(
            replace(BASE, qos_policy="ucp", measured_refs=1500), use_cache=False)
        account = result.qos
        assert account["policy"] == "ucp"
        assert account["control_epochs"] > 0
        assert account["quota_adjustments"] > 0
        # one fully shared domain, every way accounted for
        (quotas,) = account["final_quotas"].values()
        assert sum(quotas.values()) == 16
        assert set(quotas) == {"0", "1", "2", "3"}

    def test_report_scores_the_run(self):
        result = run_experiment(
            replace(BASE, qos_policy="ucp", measured_refs=1000),
            use_cache=False)
        report = qos_report(result)
        assert report.policy == "ucp"
        assert set(report.slowdowns) == {0, 1, 2, 3}
        assert report.weighted_speedup > 0
        assert 0 < report.fairness <= 1.0


class TestSpecValidation:
    def test_quota_flag_and_policy_are_mutually_exclusive(self):
        # the retired static-quota flag is refused outright, naming the
        # policy that replaces it
        fields = dict(vars(BASE), l2_vm_quota=True, qos_policy="ucp")
        with pytest.raises(ConfigurationError, match="static-equal"):
            spec_from_dict(fields)

    def test_non_positive_epoch_rejected(self):
        spec = replace(BASE, qos_policy="ucp", qos_epoch=0,
                       measured_refs=200)
        with pytest.raises(ConfigurationError):
            run_experiment(spec, use_cache=False)

    def test_target_slowdown_requires_a_target(self):
        spec = replace(BASE, qos_policy="target-slowdown",
                       measured_refs=200)
        with pytest.raises(ConfigurationError):
            run_experiment(spec, use_cache=False)
