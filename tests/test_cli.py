"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.experiment import ExperimentSpec, clear_result_cache


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_result_cache()
    yield
    clear_result_cache()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mix == "mix5"
        assert args.sharing == "shared-4"

    def test_bad_sharing_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--sharing", "shared-5"])


class _HandedOn(Exception):
    """Stops a command once its specs reached the library."""


S = ExperimentSpec
_ALL_CELLS = [("private", "rr"), ("private", "affinity"),
              ("shared", "rr"), ("shared", "affinity")]


class TestSpecAssembly:
    """Every simulation command hands the library the spec its flags
    describe: each spec flag of each command is set at least once."""

    @pytest.fixture
    def handed_on(self, monkeypatch):
        import repro.cli
        from repro.analysis import scenario_report, sched_report
        from repro.core.suite import SuiteRunner
        from repro.service import ServiceClient

        seen = []

        def capture(*specs):
            seen.extend(specs)
            raise _HandedOn

        monkeypatch.setattr(repro.cli, "run_experiment",
                            lambda spec, **_kw: capture(spec))
        monkeypatch.setattr(SuiteRunner, "run",
                            lambda _self, suite: capture(suite.base))
        monkeypatch.setattr(sched_report, "compare_sched_policies",
                            lambda _mix, **kw: capture(kw["base"]))
        monkeypatch.setattr(scenario_report, "compare_scenario_policies",
                            lambda _name, **kw: capture(kw["base"]))
        monkeypatch.setattr(ServiceClient, "submit",
                            lambda _self, specs, **_kw: capture(*specs))
        return seen

    @pytest.mark.parametrize("argv, expected", [
        (["run"], [S(mix="mix5", engine_mode="auto")]),
        (["run", "--mix", "mix1", "--sharing", "private", "--policy", "rr",
          "--refs", "300", "--warmup", "100", "--seed", "3",
          "--scale", "0.125", "--cores", "64", "--slots-per-core", "2",
          "--qos-policy", "ucp",
          "--qos-target", "1.3", "--qos-epoch", "2000",
          "--sched-policy", "contention", "--sched-epoch", "3000",
          "--core-speeds", "1.0x8,0.5x8", "--l2-asym", "16x2,8x2",
          "--vm-schedule", "0,0:1000", "--engine", "reference",
          "--rebind", "random", "--rebind-interval", "5000",
          "--phase-plan", "burst"],
         [S(mix="mix1", sharing="private", policy="rr", seed=3,
            measured_refs=300, warmup_refs=100, scale=0.125,
            slots_per_core=2, num_cores=64,
            qos_policy="ucp", qos_target=1.3,
            qos_epoch=2000, phase_plan="burst", rebind="random",
            rebind_interval=5000, sched_policy="contention",
            sched_epoch=3000, core_speeds="1.0x8,0.5x8",
            l2_asym="16x2,8x2", vm_schedule="0,0:1000",
            engine_mode="reference")]),
        (["sweep"], [S(mix="iso-tpch", engine_mode="auto")]),
        (["sweep", "--mix", "mix2", "--refs", "400", "--seed", "2",
          "--engine", "batched", "--qos-policy", "missrate-prop",
          "--qos-target", "1.2", "--qos-epoch", "4000",
          "--sched-policy", "adaptive", "--sched-epoch", "5000",
          "--core-speeds", "1.0x16", "--l2-asym", "16x4",
          "--vm-schedule", "0,100"],
         [S(mix="mix2", seed=2, measured_refs=400,
            qos_policy="missrate-prop", qos_target=1.2, qos_epoch=4000,
            sched_policy="adaptive", sched_epoch=5000,
            core_speeds="1.0x16", l2_asym="16x4", vm_schedule="0,100",
            engine_mode="batched")]),
        (["qos"], [S(mix="mix7", sharing="shared", qos_policy="ucp")]),
        (["qos", "--policy", "target-slowdown", "--mix", "mix3",
          "--sharing", "shared-8", "--sched", "rr-aff", "--target", "1.4",
          "--qos-epoch", "6000", "--refs", "500", "--warmup", "50",
          "--seed", "4", "--slots-per-core", "2"],
         [S(mix="mix3", sharing="shared-8", policy="rr-aff", seed=4,
            measured_refs=500, warmup_refs=50, slots_per_core=2,
            qos_policy="target-slowdown", qos_target=1.4,
            qos_epoch=6000)]),
        (["sched"], [S(mix="mix7", sharing="shared")]),
        (["sched", "--mix", "mix4", "--policies", "contention",
          "--placement", "random", "--sharing", "shared-2",
          "--sched-epoch", "7000", "--core-speeds", "1.0x8,0.5x8",
          "--l2-asym", "16x2,8x2", "--vm-schedule", "0,0:500",
          "--cores", "64", "--slots-per-core", "2", "--refs", "600",
          "--warmup", "60", "--seed", "5"],
         [S(mix="mix4", sharing="shared-2", policy="random", seed=5,
            measured_refs=600, warmup_refs=60, slots_per_core=2,
            num_cores=64, sched_epoch=7000, core_speeds="1.0x8,0.5x8",
            l2_asym="16x2,8x2", vm_schedule="0,0:500")]),
        (["scenario", "diurnal-web"],
         [S(mix="scn-diurnal-web", slots_per_core=2)]),
        (["scenario", "phase-flip", "--placement", "rr",
          "--sharing", "shared-8", "--slots-per-core", "3",
          "--sched-epoch", "8000", "--cores", "64", "--refs", "700",
          "--warmup", "70", "--seed", "6"],
         [S(mix="scn-phase-flip", sharing="shared-8", policy="rr",
            seed=6, measured_refs=700, warmup_refs=70, slots_per_core=3,
            num_cores=64, sched_epoch=8000)]),
        (["scenario", "churn-storm"], [S(mix="scn-churn-storm")]),
        (["suite", "sharing-policy"], [S(mix="mix5")]),
        (["suite", "qos", "--mix", "mix6", "--refs", "800", "--seed", "7"],
         [S(mix="mix6", sharing="shared", seed=7, measured_refs=800)]),
        (["suite", "mixes", "--mixes", "mix1,mix2", "--seed", "2"],
         [S(mix="mix5", seed=2)]),
        (["profile"], [S(mix="mix5")]),
        (["profile", "sched", "--mix", "mix9", "--refs", "1000",
          "--seed", "9"],
         [S(mix="mix9", sharing="shared", seed=9, measured_refs=1000)]),
        (["submit"], [S(mix="mix5")]),
        (["submit", "--mix", "mixA", "--sharings", "private,shared",
          "--policies", "rr,affinity", "--refs", "300", "--warmup", "30",
          "--seed", "10"],
         [S(mix="mixA", sharing=sharing, policy=policy, seed=10,
            measured_refs=300, warmup_refs=30)
          for sharing, policy in _ALL_CELLS]),
    ], ids=["run", "run-all", "sweep", "sweep-all", "qos", "qos-all",
            "sched", "sched-all", "scenario", "scenario-all",
            "scenario-arrivals", "suite", "suite-all", "suite-mixes",
            "profile", "profile-all", "submit",
            "submit-all"])
    def test_command_builds_spec(self, capsys, handed_on, argv, expected):
        with pytest.raises(_HandedOn):
            main(argv)
        capsys.readouterr()
        assert handed_on == expected


class TestCommands:
    def test_mixes(self, capsys):
        code, out, _err = run_cli(capsys, "mixes")
        assert code == 0
        assert "TPC-W (3) & TPC-H (1)" in out
        assert "mixD" in out

    def test_workloads(self, capsys):
        code, out, _err = run_cli(capsys, "workloads")
        assert code == 0
        for name in ("tpcw", "tpch", "specjbb", "specweb"):
            assert name in out

    def test_run(self, capsys):
        code, out, _err = run_cli(
            capsys, "run", "--mix", "iso-tpch", "--refs", "600",
            "--seed", "1")
        assert code == 0
        assert "tpch" in out
        assert "Chip summary" in out

    def test_run_with_output(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _err = run_cli(
            capsys, "run", "--mix", "iso-tpch", "--refs", "600",
            "--seed", "1", "--output", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["mix"]["name"] == "iso-tpch"
        assert payload["vm_metrics"][0]["workload"] == "tpch"

    def test_run_normalized(self, capsys):
        code, out, _err = run_cli(
            capsys, "run", "--mix", "iso-tpch", "--sharing", "shared",
            "--policy", "affinity", "--refs", "600", "--seed", "1",
            "--normalize")
        assert code == 0
        assert "Norm. runtime" in out
        # baseline normalized against itself
        assert "1.0" in out

    def test_run_overcommit_flags(self, capsys):
        code, out, _err = run_cli(
            capsys, "run", "--mix", "iso-tpch", "--refs", "400",
            "--seed", "1", "--slots-per-core", "2", "--policy", "random")
        assert code == 0

    def test_run_rebind_flag(self, capsys):
        code, _out, _err = run_cli(
            capsys, "run", "--mix", "iso-tpch", "--refs", "400",
            "--seed", "1", "--rebind", "random",
            "--rebind-interval", "30000")
        assert code == 0

    def test_run_phase_plan_flag(self, capsys):
        code, _out, _err = run_cli(
            capsys, "run", "--mix", "iso-tpch", "--refs", "400",
            "--seed", "1", "--phase-plan", "burst")
        assert code == 0

    def test_run_quota_flag(self, capsys):
        code, _out, _err = run_cli(
            capsys, "run", "--mix", "mix7", "--refs", "300", "--seed", "1",
            "--policy", "rr", "--qos-policy", "static-equal")
        assert code == 0

    @pytest.mark.parametrize("flags", [["--stagger", "5"], ["--vm-quota"]])
    def test_retired_spec_flags_exit_2(self, capsys, flags):
        # the retired spec axes are gone: --vm-schedule and
        # --qos-policy static-equal express them
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mix", "mix5", "--refs", "300", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_phase_plan_is_clean_error(self, capsys):
        code, _out, err = run_cli(
            capsys, "run", "--mix", "iso-tpch", "--refs", "200",
            "--seed", "1", "--phase-plan", "nope")
        assert code == 2
        assert "phase plan" in err

    def test_stats(self, capsys):
        code, out, _err = run_cli(capsys, "stats", "tpch", "--refs", "800",
                                  "--seed", "1")
        assert code == 0
        assert "c2c fraction" in out
        assert "blocks touched" in out

    def test_sweep(self, capsys):
        code, out, _err = run_cli(
            capsys, "sweep", "--mix", "iso-tpch", "--refs", "400",
            "--seed", "1", "--metric", "miss_rate")
        assert code == 0
        assert "private" in out and "shared-4" in out
        assert "affinity" in out

    def test_unknown_mix_is_clean_error(self, capsys):
        code, _out, err = run_cli(capsys, "run", "--mix", "mix99",
                                  "--refs", "100")
        assert code == 2
        assert "unknown mix" in err


class TestQosCommand:
    def test_qos_defaults(self):
        args = build_parser().parse_args(["qos"])
        assert args.policy == "ucp"
        assert args.mix == "mix7"
        assert args.sharing == "shared"

    def test_qos_help_names_the_policies(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["qos", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for policy in ("static-equal", "missrate-prop", "ucp",
                       "target-slowdown"):
            assert policy in out

    def test_qos_run(self, capsys):
        code, out, _err = run_cli(
            capsys, "qos", "--policy", "static-equal", "--mix", "mix7",
            "--refs", "300", "--seed", "1")
        assert code == 0
        assert "Slowdown" in out
        assert "weighted speedup" in out
        assert "fairness (Jain)" in out

    def test_qos_json_artifact(self, capsys, tmp_path):
        path = tmp_path / "qos.json"
        code, _out, _err = run_cli(
            capsys, "qos", "--policy", "missrate-prop", "--mix", "mix7",
            "--refs", "300", "--seed", "1", "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["policy"] == "missrate-prop"
        assert set(payload["slowdowns"]) == {"0", "1", "2", "3"}

    def test_run_accepts_qos_policy_flag(self, capsys):
        code, out, _err = run_cli(
            capsys, "run", "--mix", "mix7", "--sharing", "shared",
            "--refs", "300", "--seed", "1",
            "--qos-policy", "missrate-prop")
        assert code == 0
        assert "QoS" in out

    def test_unknown_qos_policy_is_clean_error(self, capsys):
        code, _out, err = run_cli(
            capsys, "qos", "--policy", "nope", "--refs", "200",
            "--seed", "1")
        assert code == 2
        assert "unknown QoS policy" in err

    def test_target_without_value_is_clean_error(self, capsys):
        code, _out, err = run_cli(
            capsys, "qos", "--policy", "target-slowdown", "--refs", "200",
            "--seed", "1")
        assert code == 2
        assert "qos_target" in err

    def test_suite_qos(self, capsys):
        code, out, _err = run_cli(
            capsys, "suite", "qos", "--mix", "mix7", "--refs", "300",
            "--seed", "1")
        assert code == 0
        assert "qos/mix7" in out


class TestSchedCommand:
    def test_sched_defaults(self):
        args = build_parser().parse_args(["sched"])
        assert args.mix == "mix7"
        assert args.policies == "static,contention,adaptive"
        assert args.placement == "affinity"

    def test_sched_run(self, capsys):
        code, out, _err = run_cli(
            capsys, "sched", "--mix", "mix7", "--refs", "300",
            "--seed", "1", "--policies", "static,contention",
            "--placement", "affinity")
        assert code == 0
        assert "WeightedSpeedup" in out
        assert "static/rr" in out
        assert "contention" in out
        assert "best static" in out
        assert "adaptive wins" in out

    def test_sched_metrics_out(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        code, _out, _err = run_cli(
            capsys, "sched", "--mix", "mix4", "--refs", "300",
            "--seed", "1", "--policies", "adaptive",
            "--slots-per-core", "2", "--metrics-out", str(path))
        assert code == 0
        text = path.read_text()
        assert "repro_sched_migrations_total" in text

    def test_sched_json_artifact(self, capsys, tmp_path):
        path = tmp_path / "sched.json"
        code, _out, _err = run_cli(
            capsys, "sched", "--mix", "mix7", "--refs", "300",
            "--seed", "1", "--policies", "static,contention",
            "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert "verdict" in payload
        assert "static/affinity" in payload["policies"]
        assert "contention" in payload["policies"]

    def test_run_accepts_sched_policy_flag(self, capsys):
        code, out, _err = run_cli(
            capsys, "run", "--mix", "mix7", "--sharing", "shared",
            "--refs", "300", "--seed", "1",
            "--sched-policy", "contention")
        assert code == 0
        assert "Scheduling" in out
        assert "migrations" in out

    def test_unknown_sched_policy_is_clean_error(self, capsys):
        code, _out, err = run_cli(
            capsys, "sched", "--policies", "nope", "--refs", "200",
            "--seed", "1")
        assert code == 2
        assert "unknown scheduling policy" in err

    def test_suite_sched(self, capsys):
        code, out, _err = run_cli(
            capsys, "suite", "sched", "--mix", "mix7", "--refs", "300",
            "--seed", "1")
        assert code == 0
        assert "sched/mix7" in out


class TestScenarioCommand:
    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        from repro.scenarios import registry

        saved = dict(registry._CUSTOM_SCENARIOS)
        yield
        registry._CUSTOM_SCENARIOS.clear()
        registry._CUSTOM_SCENARIOS.update(saved)

    def test_scenario_defaults(self):
        args = build_parser().parse_args(["scenario", "diurnal-web"])
        assert args.sharing == "shared-4"
        assert args.slots_per_core == 2
        assert args.policies == "static,contention,adaptive"

    def test_list_names_the_builtins(self, capsys):
        code, out, _err = run_cli(capsys, "scenario", "--list")
        assert code == 0
        for name in ("diurnal-web", "batch-interference", "churn-storm",
                     "phase-flip"):
            assert name in out
        assert "built-in" in out

    def test_calibrate_prints_new_families(self, capsys):
        code, out, _err = run_cli(
            capsys, "scenario", "--calibrate", "--refs", "600",
            "--seed", "1")
        assert code == 0
        for family in ("btree", "gups", "silo", "xsbench"):
            assert family in out

    def test_export_then_file_round_trips(self, capsys, tmp_path):
        exported = tmp_path / "scn.json"
        code, out, _err = run_cli(
            capsys, "scenario", "diurnal-web", "--export", str(exported))
        assert code == 0
        assert "written to" in out
        payload = json.loads(exported.read_text())
        payload["name"] = "my-diurnal"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        again = tmp_path / "again.json"
        code, _out, _err = run_cli(
            capsys, "scenario", "--file", str(edited),
            "--export", str(again))
        assert code == 0
        reloaded = json.loads(again.read_text())
        assert reloaded["name"] == "my-diurnal"
        assert reloaded["roster"] == payload["roster"]
        assert reloaded["curve"] == payload["curve"]

    def test_file_name_mismatch_is_clean_error(self, capsys, tmp_path):
        exported = tmp_path / "scn.json"
        run_cli(capsys, "scenario", "phase-flip", "--export",
                str(exported))
        code, _out, err = run_cli(
            capsys, "scenario", "other-name", "--file", str(exported))
        assert code == 2
        assert "phase-flip" in err

    def test_scorecard_run_with_json(self, capsys, tmp_path):
        path = tmp_path / "scorecard.json"
        code, out, _err = run_cli(
            capsys, "scenario", "phase-flip", "--refs", "300",
            "--warmup", "100", "--seed", "1",
            "--policies", "static,adaptive", "--json", str(path))
        assert code == 0
        assert "Scenario: phase-flip" in out
        assert "adaptive wins" in out
        assert "LoadAdj" in out
        payload = json.loads(path.read_text())
        assert payload["scenario"] == "phase-flip"
        assert payload["curve"] == "constant"
        assert "adaptive" in payload["policies"]
        assert "adaptive_wins" in payload["verdict"]

    def test_windows_table_rendered(self, capsys):
        code, out, _err = run_cli(
            capsys, "scenario", "diurnal-web", "--refs", "300",
            "--warmup", "100", "--seed", "1",
            "--policies", "adaptive", "--windows")
        assert code == 0
        assert "Windows (adaptive cell)" in out
        assert "Load" in out

    def test_arrivals_fall_back_to_single_slot(self, capsys):
        code, out, _err = run_cli(
            capsys, "scenario", "churn-storm", "--refs", "300",
            "--warmup", "100", "--seed", "1", "--policies", "adaptive")
        assert code == 0
        assert "running single-slot" in out
        assert "x 1 slots" in out

    def test_metrics_out_counts_scenario_epochs(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        code, _out, _err = run_cli(
            capsys, "scenario", "phase-flip", "--refs", "300",
            "--warmup", "100", "--seed", "1",
            "--policies", "adaptive", "--metrics-out", str(path))
        assert code == 0
        text = path.read_text()
        assert "repro_scenario_control_epochs_total" in text

    def test_nameless_invocation_is_clean_error(self, capsys):
        code, _out, err = run_cli(capsys, "scenario")
        assert code == 2
        assert "--list" in err


class TestSweepExecutorFlags:
    def test_sweep_with_jobs(self, capsys):
        code, out, _err = run_cli(
            capsys, "sweep", "--mix", "iso-tpch", "--refs", "300",
            "--seed", "1", "--jobs", "2", "--metric", "miss_rate")
        assert code == 0
        assert "private" in out and "shared-4" in out

    def test_sweep_with_store_and_progress(self, capsys, tmp_path):
        store = tmp_path / "store"
        code, _out, err = run_cli(
            capsys, "sweep", "--mix", "iso-tpch", "--refs", "300",
            "--seed", "1", "--store", str(store), "--progress")
        assert code == 0
        assert "[1/20]" in err and "[20/20]" in err
        assert len(list(store.glob("*.json"))) == 20
        # warm re-run: every cell satisfied by the store
        code, _out, err = run_cli(
            capsys, "sweep", "--mix", "iso-tpch", "--refs", "300",
            "--seed", "1", "--store", str(store), "--progress")
        assert code == 0
        assert err.count("cached") == 20


class TestChromeTraceExports:
    """The three Chrome-trace exports load, and carry the right lanes."""

    @staticmethod
    def load(path):
        events = json.loads(path.read_text())["traceEvents"]
        lanes = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M"}
        return events, lanes

    def assert_sim_and_wall_lanes(self, path):
        events, lanes = self.load(path)
        (sim_pid,) = [pid for pid, name in lanes.items() if "cycle" in name]
        sim = [e for e in events if e["pid"] == sim_pid and e["ph"] != "M"]
        assert {"miss_rate", "l2_share"} <= {
            e["name"] for e in sim if e["ph"] == "C"}
        assert "vm0 complete" in {e["name"] for e in sim if e["ph"] == "i"}
        wall = [e for e in events if e["pid"] != sim_pid and e["ph"] == "X"]
        assert [e["name"] for e in wall] == ["simulate mix1/shared-4/rr"]
        assert lanes[wall[0]["pid"]].endswith(f"(pid {wall[0]['pid']})")

    def assert_executor_spans(self, path, err):
        events, _lanes = self.load(path)
        names = [e["name"] for e in events if e["ph"] == "X"]
        cold = sum(1 for line in err.splitlines()
                   if line.startswith("[") and "cached" not in line)
        assert cold > 0
        assert names.count("executor.grid") == 1
        assert names.count("cell.simulate") == cold

    def test_run_trace_out(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        code, _out, _err = run_cli(
            capsys, "run", "--mix", "mix1", "--policy", "rr", "--refs",
            "300", "--seed", "1", "--epoch", "1000", "--trace-out",
            str(out))
        assert code == 0
        self.assert_sim_and_wall_lanes(out)

    def test_sweep_trace_out(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code, _out, err = run_cli(
            capsys, "sweep", "--mix", "iso-tpch", "--refs", "300",
            "--seed", "1", "--progress", "--trace-out", str(out))
        assert code == 0
        self.assert_executor_spans(out, err)

    def test_profile_out(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        code, _out, err = run_cli(
            capsys, "profile", "mixes", "--mixes", "mix1,mix2", "--refs",
            "300", "--progress", "--out", str(out))
        assert code == 0
        self.assert_executor_spans(out, err)


class TestSuiteCommand:
    def test_suite_list(self, capsys):
        code, out, _err = run_cli(capsys, "suite", "list")
        assert code == 0
        assert "sharing-policy" in out and "mixes" in out

    def test_suite_sharing_policy(self, capsys):
        code, out, _err = run_cli(
            capsys, "suite", "sharing-policy", "--mix", "iso-tpch",
            "--refs", "300", "--seed", "1")
        assert code == 0
        assert "sharing-policy/iso-tpch" in out
        assert "shared-4 / affinity" in out
        assert "10 cells" in out

    def test_suite_mixes_with_store(self, capsys, tmp_path):
        store = tmp_path / "store"
        code, out, _err = run_cli(
            capsys, "suite", "mixes", "--mixes", "iso-tpch,iso-specjbb",
            "--refs", "300", "--seed", "1", "--store", str(store),
            "--metric", "miss_rate")
        assert code == 0
        assert "iso-tpch" in out and "iso-specjbb" in out
        code, out, _err = run_cli(
            capsys, "suite", "mixes", "--mixes", "iso-tpch,iso-specjbb",
            "--refs", "300", "--seed", "1", "--store", str(store),
            "--metric", "miss_rate")
        assert code == 0
        assert "(2 cached)" in out

    def test_unknown_suite_is_clean_error(self, capsys):
        code, _out, err = run_cli(capsys, "suite", "nope", "--refs", "100")
        assert code == 2
        assert "unknown suite" in err


class TestVersionAndExitCodes:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {repro.__version__}"

    def test_repro_error_exits_2(self, capsys):
        code, _out, err = run_cli(capsys, "run", "--mix", "mix99",
                                  "--refs", "300")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flags", [
        ("--rebind", "random", "--core-speeds", "1.0x8,0.5x8"),
        ("--slots-per-core", "2", "--epoch", "1000"),
    ])
    def test_unactuatable_inputs_exit_2(self, capsys, flags):
        # the engine the run resolves to cannot honour one input:
        # refused instead of silently dropped
        code, _out, err = run_cli(capsys, "run", "--mix", "mix1",
                                  "--refs", "300", *flags)
        assert code == 2
        assert "does not provide" in err

    @pytest.mark.parametrize("flags", [
        ("--refs", "0"), ("--refs", "-5"), ("--refs", "300", "--warmup", "-3"),
    ])
    def test_invalid_run_size_exits_2(self, capsys, flags):
        code, _out, err = run_cli(capsys, "run", "--mix", "iso-tpch", *flags)
        assert code == 2
        assert "error:" in err and "_refs must be" in err

    def test_trace_without_job_exits_2(self, capsys):
        # an experiment's own trace is `run --epoch N --trace-out`;
        # `trace` only merges one job's span logs
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--mix", "mix1", "--refs", "300"])
        assert excinfo.value.code == 2
        assert "--job" in capsys.readouterr().err

    def test_missing_result_file_exits_2(self, capsys):
        # load_result wraps the missing file in a ReproError
        code, _out, err = run_cli(capsys, "compare", "/no/such/a.json",
                                  "/no/such/b.json")
        assert code == 2
        assert "does not exist" in err

    def test_os_error_exits_3(self, capsys):
        code, _out, err = run_cli(
            capsys, "run", "--mix", "iso-tpch", "--refs", "300",
            "--seed", "1", "--output", "/no/such/dir/out.json")
        assert code == 3
        assert "error:" in err

    def test_unreachable_service_exits_2(self, capsys):
        code, _out, err = run_cli(capsys, "jobs", "--url",
                                  "http://127.0.0.1:1")
        assert code == 2
        assert "cannot reach" in err

    def test_success_exits_0(self, capsys):
        code, _out, _err = run_cli(capsys, "mixes")
        assert code == 0


class TestServiceParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.queue_limit == 64
        assert args.rate == 0.0
        assert args.journal is None
        # one process and no pool; the scheduler sizes --concurrency
        assert args.jobs == 1
        assert args.concurrency is None

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit"])
        assert args.url == "http://127.0.0.1:8765"
        assert args.mix == "mix5"
        assert args.sharings == "shared-4"
        assert args.policies == "affinity"
        assert not args.wait

    def test_jobs_takes_optional_id(self):
        args = build_parser().parse_args(["jobs", "abc123"])
        assert args.job_id == "abc123"
        args = build_parser().parse_args(["jobs"])
        assert args.job_id is None

    @pytest.mark.parametrize("argv", [
        ["fleet"], ["serve", "--workers", "2"],
        ["serve", "--journal-dir", "j"], ["serve", "--replicas", "8"],
        ["serve", "--health-interval", "1"], ["loadgen", "--workers", "2"],
    ])
    def test_retired_fleet_command_and_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestServiceCommands:
    """submit/jobs against an embedded server (the CLI serve path
    itself is exercised by the CI smoke test)."""

    @pytest.fixture
    def service_url(self):
        from repro.service import ServiceServer

        server = ServiceServer(backoff_base=0.01).start_in_thread()
        yield f"http://127.0.0.1:{server.port}"
        server.shutdown()

    def test_submit_wait_and_list(self, capsys, service_url):
        code, out, _err = run_cli(
            capsys, "submit", "--url", service_url,
            "--mix", "iso-tpch", "--sharings", "private",
            "--policies", "rr", "--refs", "300", "--warmup", "100",
            "--seed", "1", "--wait")
        assert code == 0
        assert "done" in out
        assert "1 simulated" in out or "0 cells cached" in out

        code, out, _err = run_cli(capsys, "jobs", "--url", service_url)
        assert code == 0
        assert "done" in out

    def test_submit_no_wait_returns_immediately(self, capsys,
                                                service_url):
        code, out, _err = run_cli(
            capsys, "submit", "--url", service_url,
            "--mix", "iso-tpch", "--sharings", "private",
            "--policies", "rr", "--refs", "300", "--warmup", "100",
            "--seed", "2")
        assert code == 0
        assert "job " in out

    def test_jobs_detail_view(self, capsys, service_url):
        code, out, _err = run_cli(
            capsys, "submit", "--url", service_url,
            "--mix", "iso-tpch", "--sharings", "private",
            "--policies", "rr", "--refs", "300", "--warmup", "100",
            "--seed", "3", "--wait")
        assert code == 0
        job_id = out.split()[1].rstrip(":")
        code, out, _err = run_cli(capsys, "jobs", job_id, "--url",
                                  service_url)
        assert code == 0
        assert job_id in out
        assert "state" in out
