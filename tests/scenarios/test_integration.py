"""End-to-end scenario runs: the headline scorecard, churn on the
over-committed machine, hook composition, and spec validation."""

import pytest

from repro.analysis.scenario_report import (
    compare_scenario_policies,
    scenario_table,
    scenario_verdict,
    scenario_window_rows,
)
from repro.core.experiment import (
    ExperimentSpec,
    clear_result_cache,
    run_experiment,
)
from repro.errors import ConfigurationError
from repro.qos.metrics import qos_report
from repro.scenarios import scenario_spec

FAST = dict(measured_refs=800, warmup_refs=400, seed=1)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


class TestHeadlineScorecard:
    """ISSUE 10's acceptance: on the consolidated (over-committed)
    machine under churn, a dynamic policy beats every static placement
    on weighted speedup."""

    def test_dynamic_policy_beats_every_static_placement(self):
        base = ExperimentSpec(mix="scn-diurnal-web", sharing="shared-4",
                              slots_per_core=2, sched_epoch=10_000, **FAST)
        reports = compare_scenario_policies(
            "diurnal-web", policies=("static", "contention", "adaptive"),
            base=base, use_cache=False)
        verdict = scenario_verdict(reports)
        assert verdict["adaptive_wins"] is True
        statics = {label: r.weighted_speedup for label, r in reports.items()
                   if label.startswith("static/")}
        best = reports[verdict["best_adaptive"]].weighted_speedup
        assert len(statics) == 4
        assert all(best > speedup for speedup in statics.values())
        # the table folds every cell with the actuation columns
        headers, rows = scenario_table(reports)
        assert headers[-2:] == ["LoadAdj", "Switches"]
        assert len(rows) == 6

    def test_scorecard_is_deterministic(self):
        base = ExperimentSpec(mix="scn-diurnal-web", sharing="shared-4",
                              slots_per_core=2, sched_epoch=10_000, **FAST)
        for _ in range(2):
            reports = compare_scenario_policies(
                "diurnal-web", policies=("adaptive",), base=base,
                use_cache=False)
            verdict_speedup = reports["adaptive"].weighted_speedup
        again = compare_scenario_policies(
            "diurnal-web", policies=("adaptive",), base=base,
            use_cache=False)
        assert again["adaptive"].weighted_speedup == verdict_speedup


class TestChurnOnOvercommit:
    def test_departure_frees_capacity_mid_run(self):
        spec = scenario_spec("diurnal-web", sharing="shared-4",
                             slots_per_core=2, **FAST)
        result = run_experiment(spec, use_cache=False)
        summary = result.scenario
        departed = [w for w in summary["windows"]
                    if w["start"] >= 60_000]
        assert departed, "run must outlive the scripted departure"
        assert all(w["issued"]["3"] == 0 for w in departed)
        # the other tenants keep issuing after the departure
        assert any(w["issued"]["2"] > 0 for w in departed)

    def test_departure_windows_render(self):
        spec = scenario_spec("diurnal-web", sharing="shared-4",
                             slots_per_core=2, **FAST)
        result = run_experiment(spec, use_cache=False)
        report = qos_report(result)
        headers, rows = scenario_window_rows(report.control)
        assert headers[:3] == ["Start", "End", "Load"]
        assert "VM3" in headers
        assert rows

    def test_arrivals_still_require_single_slot(self):
        spec = scenario_spec("batch-interference", slots_per_core=2,
                             **FAST)
        with pytest.raises(ConfigurationError, match="arrivals"):
            run_experiment(spec, use_cache=False)

    def test_arrivals_run_single_slot(self):
        spec = scenario_spec("batch-interference", **FAST)
        result = run_experiment(spec, use_cache=False)
        windows = result.scenario["windows"]
        before = [w for w in windows if w["end"] <= 40_000]
        assert before and all(w["issued"]["3"] == 0 for w in before)


class TestComposition:
    def test_scenario_composes_with_qos_and_sched(self):
        spec = scenario_spec("phase-flip", sharing="shared-4",
                             qos_policy="static-equal", qos_epoch=5_000,
                             sched_policy="contention", sched_epoch=5_000,
                             **FAST)
        result = run_experiment(spec, use_cache=False)
        assert result.scenario is not None
        assert result.qos is not None
        assert result.sched is not None
        assert result.scenario["switches_applied"] == 3

    def test_report_merges_scenario_and_sched_accounts(self):
        spec = scenario_spec("phase-flip", sharing="shared-4",
                             sched_policy="contention", sched_epoch=5_000,
                             **FAST)
        report = qos_report(run_experiment(spec, use_cache=False))
        assert report.policy == "contention"
        assert report.control["scenario"] == "phase-flip"
        assert report.control["switches_applied"] == 3
        assert "windows" in report.control


class TestValidation:
    def test_scenario_spec_helper_rejects_owned_fields(self):
        with pytest.raises(ConfigurationError, match="mix"):
            scenario_spec("diurnal-web", mix="mix4")
        with pytest.raises(ConfigurationError, match="scenario"):
            scenario_spec("diurnal-web", scenario="phase-flip")

    def test_mismatched_mix_rejected(self):
        spec = ExperimentSpec(mix="mix4", scenario="diurnal-web", **FAST)
        with pytest.raises(ConfigurationError, match="scn-diurnal-web"):
            run_experiment(spec, use_cache=False)

    @pytest.mark.parametrize("field, value", [
        ("phase_plan", "burst"),
        ("vm_schedule", "0,0:5000,0,0"),
        ("rebind", "random"),
    ])
    def test_scenario_owns_the_time_varying_axes(self, field, value):
        spec = scenario_spec("diurnal-web", **FAST)
        spec = spec.__class__(**{**spec.__dict__, field: value})
        with pytest.raises(ConfigurationError, match=field):
            run_experiment(spec, use_cache=False)

    def test_unknown_scenario_is_a_clean_error(self):
        spec = ExperimentSpec(mix="scn-nope", scenario="nope", **FAST)
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            run_experiment(spec, use_cache=False)
