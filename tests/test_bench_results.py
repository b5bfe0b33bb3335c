"""The figure benchmarks keep their checked-in tables.

``benchmarks/_common.emit`` writes ``benchmarks/results/<name>.txt``
only at the size and seed those tables were made at; a quick low-refs
run (CI runs some ablations at 2000 refs) must only print.
"""

import importlib.util
from pathlib import Path

import pytest

COMMON = Path(__file__).resolve().parent.parent / "benchmarks" / "_common.py"


@pytest.fixture
def common(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    spec = importlib.util.spec_from_file_location("bench_common", COMMON)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "results")
    return module


@pytest.mark.parametrize("refs,seed", [(2000, 1), (24000, 1), (12000, 2)])
def test_other_runs_only_print(common, monkeypatch, capsys, refs, seed):
    monkeypatch.setattr(common, "BENCH_REFS", refs)
    monkeypatch.setattr(common, "BENCH_SEED", seed)
    assert common.emit("table", "row 1") is None
    assert "row 1" in capsys.readouterr().out
    assert not common.RESULTS_DIR.exists()


def test_results_size_writes_the_table(common, monkeypatch, capsys):
    monkeypatch.setattr(common, "BENCH_REFS", common.RESULTS_REFS)
    monkeypatch.setattr(common, "BENCH_SEED", common.RESULTS_SEED)
    path = common.emit("table", "row 1")
    assert path == common.RESULTS_DIR / "table.txt"
    assert path.read_text() == "row 1\n"
    assert "row 1" in capsys.readouterr().out
