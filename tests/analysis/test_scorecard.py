"""The one policy scorecard: the scorer's account rule, the cell
expansion shared by ``repro sched`` and ``repro scenario``, and the
table both commands print."""

import importlib
import inspect
from dataclasses import replace

import pytest

from repro.analysis.sched_report import (
    DEFAULT_PLACEMENTS,
    policy_cells,
    sched_table,
)
from repro.core.experiment import (
    ExperimentSpec,
    clear_result_cache,
    run_experiment,
)
from repro.qos.metrics import QosReport, qos_report
from repro.scenarios import scenario_spec

FAST = dict(sharing="shared-4", measured_refs=300, warmup_refs=100, seed=1)
SCENARIO_KEYS = ["scenario", "scenario_epochs", "load_adjustments",
                 "switches_applied", "windows"]


def test_report_submodules_import_as_modules():
    # the package once re-exported a scorer function under each
    # submodule's name, so `import ... as m` bound the function
    import repro.analysis.scenario_report as m
    import repro.analysis.sched_report as s

    assert inspect.ismodule(m)
    assert inspect.ismodule(s)
    assert m is importlib.import_module("repro.analysis.scenario_report")
    assert s is importlib.import_module("repro.analysis.sched_report")


class TestPolicyCells:
    TEMPLATE = ExperimentSpec(mix="mix7", policy="affinity",
                              sched_epoch=5_000)

    def test_static_expands_in_place_and_order_is_kept(self):
        cells = policy_cells(self.TEMPLATE, ("contention", "static",
                                              "adaptive"))
        assert list(cells) == (
            ["contention"]
            + [f"static/{p}" for p in DEFAULT_PLACEMENTS]
            + ["adaptive"])

    def test_static_cells_carry_no_hook_and_their_placement(self):
        cells = policy_cells(
            replace(self.TEMPLATE, sched_policy="contention"),
            ("static",), placements=("rr", "random"))
        assert list(cells) == ["static/rr", "static/random"]
        for placement, spec in zip(("rr", "random"), cells.values()):
            assert spec.policy == placement
            assert spec.sched_policy == ""
            assert spec.sched_epoch == 5_000

    def test_adaptive_cells_keep_the_template_placement(self):
        cells = policy_cells(self.TEMPLATE, ("adaptive", "hetero"))
        assert list(cells) == ["adaptive", "hetero"]
        assert [s.sched_policy for s in cells.values()] == [
            "adaptive", "hetero"]
        assert all(s.policy == "affinity" for s in cells.values())

    def test_no_policies_no_cells(self):
        assert policy_cells(self.TEMPLATE, ()) == {}


def _report(control):
    return QosReport(policy="none", slowdowns={0: 1.0, 1: 2.0},
                     workloads={0: "tpcw", 1: "specjbb"}, control=control)


class TestSchedTable:
    BASE = ["Policy", "WeightedSpeedup", "HarmonicSpeedup", "Fairness",
            "MaxSlowdown", "Migrations"]

    def test_sched_reports_get_no_scenario_columns(self):
        headers, rows = sched_table({
            "static/rr": _report({}),
            "contention": _report({"policy": "contention",
                                   "migrations": 3}),
        })
        assert headers == self.BASE
        assert rows[0][-1] == "-"
        assert rows[1][-1] == 3
        assert all(len(row) == len(headers) for row in rows)

    def test_scenario_reports_add_the_actuation_columns(self):
        account = {"scenario": "phase-flip", "load_adjustments": 7,
                   "switches_applied": 3}
        headers, rows = sched_table({
            "static/rr": _report(dict(account)),
            "adaptive": _report({"policy": "adaptive", "migrations": 2,
                                 **account}),
        })
        assert headers == self.BASE + ["LoadAdj", "Switches"]
        assert rows[0][-3:] == ["-", 7, 3]
        assert rows[1][-3:] == [2, 7, 3]


class TestAccountRule:
    """Which control account ``qos_report`` attaches, per run type."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_result_cache()
        yield
        clear_result_cache()

    @staticmethod
    def run(spec):
        # the hooks' live accounts are not cached with the result
        return run_experiment(spec, use_cache=False)

    def test_plain_run_has_no_account(self):
        result = self.run(ExperimentSpec(mix="mix7", **FAST))
        report = qos_report(result)
        assert report.policy == "none"
        assert report.control == {}

    def test_qos_run_carries_the_controller_account(self):
        result = self.run(ExperimentSpec(
            mix="mix7", qos_policy="ucp", qos_epoch=5_000, **FAST))
        report = qos_report(result)
        assert report.policy == "ucp"
        assert report.control == result.qos

    def test_sched_run_carries_the_scheduler_account(self):
        result = self.run(ExperimentSpec(
            mix="mix7", sched_policy="contention", sched_epoch=5_000,
            **FAST))
        report = qos_report(result)
        assert report.policy == "contention"
        assert report.control == result.sched
        assert "migrations" in report.control

    def test_scheduler_account_wins_over_the_controller(self):
        result = self.run(ExperimentSpec(
            mix="mix7", qos_policy="static-equal", qos_epoch=5_000,
            sched_policy="contention", sched_epoch=5_000, **FAST))
        assert result.qos and result.sched
        report = qos_report(result)
        assert report.policy == "contention"
        assert report.control == result.sched

    def test_scenario_static_cell_carries_only_the_scenario_account(self):
        result = self.run(scenario_spec("phase-flip", **FAST))
        assert result.sched is None
        report = qos_report(result)
        assert report.policy == "none"
        assert list(report.control) == SCENARIO_KEYS
        assert report.control["scenario"] == "phase-flip"
        assert report.control["scenario_epochs"] == \
            result.scenario["control_epochs"]
        assert report.control["windows"] == result.scenario["windows"]

    def test_scenario_account_merges_after_the_scheduler_account(self):
        result = self.run(scenario_spec(
            "phase-flip", sched_policy="contention", sched_epoch=5_000,
            **FAST))
        report = qos_report(result)
        assert report.policy == "contention"
        assert list(report.control) == list(result.sched) + SCENARIO_KEYS
        assert report.control["migrations"] == result.sched["migrations"]
        assert report.control["switches_applied"] == \
            result.scenario["switches_applied"]
