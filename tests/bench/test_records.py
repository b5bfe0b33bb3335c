"""Tests for the bench record schema and per-target file routing."""

import json

import pytest

from repro.bench.records import (
    BENCH_TARGETS,
    BenchRecord,
    append_records,
    load_bench_file,
    validate_bench_payload,
)
from repro.errors import ReproError


def record(target="kernel", bench="qos-overhead"):
    return BenchRecord(bench=bench, target=target,
                       params={"refs": 300}, metrics={"seconds": 1.5})


class TestTargets:
    def test_service_is_a_first_class_target(self):
        assert "service" in BENCH_TARGETS

    def test_each_target_routes_to_its_own_file(self, tmp_path):
        written = append_records(tmp_path, [
            record("kernel"), record("sweep", "sweep-throughput"),
            record("service", "service-loadgen"),
        ])
        assert sorted(p.name for p in written) == [
            "BENCH_kernel.json", "BENCH_service.json", "BENCH_sweep.json"]
        for path in written:
            payload = load_bench_file(path)
            assert payload["schema"] == 1
            assert len(payload["records"]) == 1

    def test_unknown_target_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            append_records(tmp_path, [record("nonsense")])

    def test_append_preserves_history(self, tmp_path):
        append_records(tmp_path, [record("service")])
        append_records(tmp_path, [record("service", "service-loadgen")])
        payload = load_bench_file(tmp_path / "BENCH_service.json")
        assert [r["bench"] for r in payload["records"]] == [
            "qos-overhead", "service-loadgen"]


    @pytest.mark.parametrize("indent", [1, 2])
    def test_append_changes_only_the_appended_lines(self, tmp_path,
                                                    indent):
        # the checked-in bench files use 1- and 2-space indents; an
        # append keeps the file's own, so its diff is the new record
        path = tmp_path / "BENCH_service.json"
        path.write_text(json.dumps({"schema": 1, "records": [
            record("service").to_dict()]}, indent=indent) + "\n")
        old = path.read_text().splitlines()
        append_records(tmp_path, [record("service", "service-loadgen")])
        new = path.read_text().splitlines()
        # all old lines survive; the old last record's closing brace
        # only gains the comma that separates it from the new one
        assert new[:len(old) - 3] == old[:-3]
        assert new[len(old) - 3] == old[-3] + ","
        assert new[-2:] == old[-2:]
        assert len(new) > len(old)

    def test_new_file_uses_two_space_indent(self, tmp_path):
        append_records(tmp_path, [record("service")])
        assert (tmp_path / "BENCH_service.json").read_text().startswith(
            '{\n  "schema": 1')


class TestValidation:
    def test_corrupt_file_raises_instead_of_truncating(self, tmp_path):
        path = tmp_path / "BENCH_service.json"
        path.write_text("{broken")
        with pytest.raises(ReproError):
            append_records(tmp_path, [record("service")])
        assert path.read_text() == "{broken"  # untouched

    def test_metrics_must_be_numbers(self):
        payload = {"schema": 1, "records": [{
            "bench": "x", "timestamp": "t", "params": {},
            "metrics": {"oops": "fast"}}]}
        with pytest.raises(ReproError):
            validate_bench_payload(payload)

    def test_repo_root_bench_files_validate(self):
        # the committed trajectory files must always load
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        for name in ("BENCH_kernel.json", "BENCH_sweep.json",
                     "BENCH_service.json"):
            path = root / name
            if path.exists():
                payload = load_bench_file(path)
                assert isinstance(payload["records"], list)

    def test_record_serialization_shape(self):
        data = record().to_dict()
        assert set(data) >= {"bench", "timestamp", "quick", "host",
                             "params", "metrics"}
        json.dumps(data)  # JSON-serializable end to end
