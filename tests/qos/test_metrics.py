"""Tests for the QoS scorecard metrics and report."""

import pytest

from repro.core.experiment import (
    ExperimentSpec,
    clear_result_cache,
    run_experiment,
)
from repro.errors import ReproError
from repro.qos.metrics import (
    QosReport,
    harmonic_speedup,
    jains_index,
    qos_report,
    weighted_speedup,
)


class TestSpeedups:
    def test_weighted_speedup_sums_inverse_slowdowns(self):
        assert weighted_speedup({0: 1.0, 1: 2.0}) == pytest.approx(1.5)

    def test_weighted_speedup_equals_n_when_unslowed(self):
        assert weighted_speedup({0: 1.0, 1: 1.0, 2: 1.0}) == pytest.approx(3.0)

    def test_harmonic_speedup(self):
        assert harmonic_speedup({0: 1.0, 1: 3.0}) == pytest.approx(0.5)
        assert harmonic_speedup({0: 1.0, 1: 1.0}) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            weighted_speedup({})
        with pytest.raises(ReproError):
            harmonic_speedup({})


class TestJainsIndex:
    def test_equal_values_are_perfectly_fair(self):
        assert jains_index([2.0, 2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_concentration_lowers_index(self):
        assert jains_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_bounds(self):
        values = [1.3, 2.1, 0.4, 1.0]
        index = jains_index(values)
        assert 1 / len(values) <= index <= 1.0

    def test_zero_vector_is_fair(self):
        assert jains_index([0.0, 0.0]) == 1.0

    def test_validation(self):
        with pytest.raises(ReproError):
            jains_index([])
        with pytest.raises(ReproError):
            jains_index([1.0, -1.0])


class TestQosReport:
    def report(self, target=0.0, control=None):
        return QosReport(
            policy="ucp",
            slowdowns={0: 1.0, 1: 1.5, 2: 1.1},
            workloads={0: "tpcw", 1: "specjbb", 2: "tpch"},
            target=target,
            control=control or {},
        )

    def test_scorecard_properties(self):
        report = self.report()
        assert report.max_slowdown == 1.5
        assert report.weighted_speedup == pytest.approx(1 + 1 / 1.5 + 1 / 1.1)
        assert report.harmonic_speedup == pytest.approx(3 / 3.6)
        assert 0 < report.fairness <= 1.0

    def test_perfectly_even_pain_is_fair(self):
        report = QosReport(policy="x", slowdowns={0: 1.2, 1: 1.2},
                           workloads={0: "a", 1: "b"})
        assert report.fairness == pytest.approx(1.0)

    def test_violations_need_a_target(self):
        assert self.report().violating_vms == []
        assert self.report(target=1.2).violating_vms == [1]

    def test_violation_epochs_come_from_control(self):
        assert self.report(control={"violation_epochs": 7}).violation_epochs == 7
        assert self.report().violation_epochs == 0

    def test_rows_gain_a_target_column(self):
        plain = self.report().rows()
        assert plain[0] == ["vm0", "tpcw", 1.0]
        judged = self.report(target=1.2).rows()
        assert judged[1] == ["vm1", "specjbb", 1.5, "over"]
        assert judged[2] == ["vm2", "tpch", 1.1, "ok"]

    def test_to_dict_is_json_friendly(self):
        payload = self.report(target=1.2, control={"policy": "ucp"}).to_dict()
        assert payload["policy"] == "ucp"
        assert payload["slowdowns"]["1"] == 1.5
        assert payload["violating_vms"] == [1]
        assert set(payload) >= {"weighted_speedup", "harmonic_speedup",
                                "fairness", "max_slowdown", "control"}


class TestQosReportFromResults:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_result_cache()
        yield
        clear_result_cache()

    KW = dict(mix="mix5", sharing="shared", policy="rr",
              measured_refs=400, warmup_refs=100, seed=3)

    def test_plain_run_scores_as_uncontrolled(self):
        result = run_experiment(ExperimentSpec(**self.KW))
        report = qos_report(result)
        assert report.policy == "none"
        assert set(report.slowdowns) == {0, 1, 2, 3}
        assert all(s > 0 for s in report.slowdowns.values())
        assert report.control == {}

    def test_static_equal_run_scores_as_static_equal(self):
        result = run_experiment(
            ExperimentSpec(qos_policy="static-equal", **self.KW))
        assert qos_report(result).policy == "static-equal"

    def test_qos_run_carries_its_controller_account(self):
        result = run_experiment(
            ExperimentSpec(qos_policy="missrate-prop", qos_epoch=2000,
                           **self.KW),
            use_cache=False,
        )
        report = qos_report(result)
        assert report.policy == "missrate-prop"
        assert report.control["control_epochs"] > 0
        assert report.workloads == {0: "specjbb", 1: "specjbb",
                                    2: "tpch", 3: "tpch"}
