"""Tests for the declarative ExperimentSuite / SuiteRunner layer."""

import pytest

from repro.core.experiment import ALL_POLICIES, ALL_SHARINGS, ExperimentSpec
from repro.core.store import ResultStore, set_default_store
from repro.core.suite import (
    SUITES,
    ExperimentSuite,
    SuiteRunner,
    get_suite,
    mixes_suite,
    sharing_policy_suite,
    suite_names,
)
from repro.errors import ConfigurationError

TINY = dict(measured_refs=300, warmup_refs=100, seed=1)
BASE = ExperimentSpec(mix="iso-tpch", **TINY)


@pytest.fixture(autouse=True)
def isolated_default_store():
    previous = set_default_store(ResultStore())
    yield
    set_default_store(previous)


class TestSuiteDefinition:
    def test_build_and_cells(self):
        suite = ExperimentSuite.build(
            "grid", BASE, sharing=["private", "shared-4"],
            policy=["rr", "affinity"])
        assert suite.axis_names == ("sharing", "policy")
        assert len(suite) == 4
        cells = suite.cells()
        assert [key for key, _spec in cells] == [
            ("private", "rr"), ("private", "affinity"),
            ("shared-4", "rr"), ("shared-4", "affinity"),
        ]
        for key, spec in cells:
            assert (spec.sharing, spec.policy) == key
            assert spec.mix == "iso-tpch"

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="not an ExperimentSpec"):
            ExperimentSuite.build("bad", BASE, turbo=["on"])

    def test_no_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSuite.build("empty", BASE)

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            ExperimentSuite.build("empty-axis", BASE, sharing=[])

    def test_suite_is_hashable_and_frozen(self):
        suite = ExperimentSuite.build("grid", BASE, sharing=["private"])
        assert hash(suite)
        with pytest.raises(AttributeError):
            suite.name = "other"


class TestSuiteRunner:
    def test_run_returns_keyed_results(self):
        suite = ExperimentSuite.build(
            "grid", BASE, sharing=["private", "shared-4"])
        outcome = SuiteRunner(store=ResultStore()).run(suite)
        assert set(outcome.results) == {("private",), ("shared-4",)}
        assert outcome.failures == {}
        assert outcome.cached_cells == 0
        assert outcome.total_wall_time > 0
        assert outcome.result("private").vm_metrics[0].cycles > 0

    def test_failures_surface_without_aborting(self):
        suite = ExperimentSuite.build(
            "part-bad", BASE, mix=["iso-tpch", "mix99"])
        outcome = SuiteRunner(store=ResultStore()).run(suite)
        assert set(outcome.results) == {("iso-tpch",)}
        assert ("mix99",) in outcome.failures
        with pytest.raises(ConfigurationError, match="failed"):
            outcome.result("mix99")

    def test_grid_extraction(self):
        suite = ExperimentSuite.build(
            "grid", BASE, sharing=["private", "shared-4"])
        outcome = SuiteRunner(store=ResultStore()).run(suite)
        grid = outcome.grid(lambda r: r.vm_metrics[0].miss_rate)
        assert set(grid) == {("private",), ("shared-4",)}
        assert all(isinstance(v, float) for v in grid.values())

    def test_warm_store_marks_cached(self):
        store = ResultStore()
        suite = ExperimentSuite.build("grid", BASE, sharing=["private"])
        runner = SuiteRunner(store=store)
        runner.run(suite)
        again = runner.run(suite)
        assert again.cached_cells == 1
        assert again.total_wall_time == 0


class TestCannedSuites:
    def test_sharing_policy_suite_shape(self):
        suite = sharing_policy_suite(
            "mix5", sharings=["private", "shared-4"],
            policies=["affinity"], base=BASE)
        assert suite.name == "sharing-policy/mix5"
        assert suite.axis_names == ("sharing", "policy")
        assert len(suite) == 2
        assert all(spec.mix == "mix5" for _key, spec in suite.cells())

    def test_sharing_policy_suite_defaults_to_the_paper_sharings(self):
        suite = sharing_policy_suite("mix5", base=BASE)
        assert ALL_SHARINGS == ("private", "shared-2", "shared-4",
                                "shared-8", "shared")
        assert ALL_POLICIES == ("rr", "affinity", "rr-aff", "random")
        assert [key for key, _spec in suite.cells()] == [
            (sharing, policy) for sharing in ALL_SHARINGS
            for policy in ("rr", "affinity")]

    def test_mixes_suite_shape(self):
        suite = mixes_suite(["mix1", "mix2"], base=BASE)
        assert suite.axis_names == ("mix",)
        assert [key for key, _spec in suite.cells()] == [
            ("mix1",), ("mix2",)]

    def test_mixes_suite_defaults_to_heterogeneous(self):
        suite = mixes_suite()
        assert len(suite) == 9

    def test_registry(self):
        assert set(suite_names()) == set(SUITES) == {
            "sharing-policy", "mixes", "qos", "sched"}
        suite = get_suite("sharing-policy", mix="mix3")
        assert suite.name == "sharing-policy/mix3"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown suite"):
            get_suite("nope")


class TestPackageExports:
    def test_new_api_exported_from_repro(self):
        import repro

        for name in ("ExperimentSuite", "SuiteRunner", "SuiteResult",
                     "SweepExecutor", "CellOutcome", "ResultStore",
                     "spec_key", "get_default_store", "set_default_store",
                     "plan", "sharing_policy_suite",
                     "mixes_suite", "get_suite", "suite_names",
                     "SweepError"):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name
