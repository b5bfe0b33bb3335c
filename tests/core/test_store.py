"""Tests for the content-addressed result store."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    get_default_store,
    result_to_dict,
    set_default_store,
    spec_key,
)

SPEC = ExperimentSpec(mix="iso-tpch", measured_refs=400, warmup_refs=100,
                      seed=1)


@pytest.fixture(autouse=True)
def isolated_default_store():
    previous = set_default_store(ResultStore())
    yield
    set_default_store(previous)


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(SPEC, use_cache=False)


class TestSpecKey:
    def test_stable(self):
        assert spec_key(SPEC) == spec_key(SPEC)
        assert len(spec_key(SPEC)) == 64

    def test_normalization_invariance(self):
        # a defaulted spec and its explicit resolution key identically
        loose = ExperimentSpec(mix="iso-tpch", measured_refs=400,
                               warmup_refs=100, seed=1,
                               sharing="fully-shared")
        explicit = ExperimentSpec(mix="iso-tpch", measured_refs=400,
                                  warmup_refs=100, seed=1, sharing="shared")
        assert spec_key(loose) == spec_key(explicit)

    def test_differs_across_specs(self):
        other = ExperimentSpec(mix="iso-tpch", measured_refs=400,
                               warmup_refs=100, seed=2)
        assert spec_key(SPEC) != spec_key(other)

    @pytest.mark.parametrize("fields, digest", [
        (dict(mix="mix1"),
         "b70fcf771549601bc63035191cc2d66ed9f6bc0f05151b95d955521d4f3c3226"),
        # auto resolves to batched: the key names the kernel that ran
        (dict(mix="mix1", engine_mode="auto"),
         "0dabbf2476322273d49ba4ebd7b2b0ab50fea863bdf4d3a0eb725358ce79e8fa"),
        (dict(mix="scn-diurnal-web", scenario="diurnal-web",
              sched_policy="adaptive", qos_policy="ucp"),
         "a59d92c90d6b160165dcc9e17d9c598c75897f25b23d082e38c313c77cb810d1"),
        # an arrival-only schedule under auto stays on the reference
        (dict(mix="mix4", vm_schedule="0,1000,0,0", engine_mode="auto"),
         "a7213974331457a16ac16f5e594747b5ea6eaf895e7c04eb60cd692181cd4108"),
        (dict(mix="mix1", l2_asym="16x2,8x2", core_speeds="1.0x8,0.5x8"),
         "968c0e3de0394919e5f1d6af7edc9680302dbdc1bed6beee4b10bac502b4dbef"),
        (dict(mix="iso-tpch"),
         "458f68a8f6c1f4b8ebc0e5672199971aea86420d5a2d754b05addc0cefb7ea73"),
        (dict(mix="mix1", slots_per_core=2),
         "9f0c60ae0aa5c45ab7b6a80987bc35ad2a30160197d16e1e097e0b9109e592ea"),
    ])
    def test_pinned_digests(self, fields, digest, monkeypatch):
        # a changed key orphans every stored result: keys move only with
        # a SPEC_KEY_VERSION bump or a change to the spec's field set
        monkeypatch.delenv("REPRO_REFS", raising=False)
        monkeypatch.delenv("REPRO_SEED", raising=False)
        assert spec_key(ExperimentSpec(**fields)) == digest


class TestMemoryTier:
    def test_round_trip(self, small_result):
        store = ResultStore()
        store.put(SPEC, small_result)
        assert store.get(SPEC) is small_result
        assert SPEC in store
        assert len(store) == 1

    def test_miss(self):
        store = ResultStore()
        assert store.get(SPEC) is None
        assert store.stats.misses == 1

    def test_clear_memory(self, small_result):
        store = ResultStore()
        store.put(SPEC, small_result)
        store.clear_memory()
        assert store.get(SPEC) is None


class TestDiskTier:
    def test_round_trip_across_instances(self, small_result, tmp_path):
        ResultStore(tmp_path).put(SPEC, small_result)
        fresh = ResultStore(tmp_path)
        loaded = fresh.get(SPEC)
        assert loaded is not None
        assert fresh.stats.disk_hits == 1
        assert result_to_dict(loaded) == result_to_dict(small_result)
        # disk hit was promoted to the memory tier
        assert len(fresh) == 1

    def test_disk_keys(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        assert list(store.disk_keys()) == [key]

    def test_compact_record_reads_back_equal(self, small_result, tmp_path):
        key = ResultStore(tmp_path).put(SPEC, small_result)
        raw = (tmp_path / f"{key}.json").read_text()
        assert "\n" not in raw
        assert json.loads(raw)["spec_key"] == key
        loaded = ResultStore(tmp_path).get(SPEC)
        assert result_to_dict(loaded) == result_to_dict(small_result)

    def test_indented_record_still_reads(self, small_result, tmp_path):
        # stores written with an indented envelope stay valid
        key = spec_key(SPEC)
        (tmp_path / f"{key}.json").write_text(json.dumps({
            "store_schema": STORE_SCHEMA_VERSION,
            "spec_key": key,
            "result": result_to_dict(small_result),
        }, indent=2))
        fresh = ResultStore(tmp_path)
        loaded = fresh.get(SPEC)
        assert fresh.stats.disk_hits == 1
        assert result_to_dict(loaded) == result_to_dict(small_result)
        assert json.loads(fresh.encoded_by_key(key)) \
            == result_to_dict(small_result)

    @pytest.mark.parametrize("value, reads", [(False, True), (True, False)])
    def test_record_naming_a_retired_spec_field(self, small_result, tmp_path,
                                                value, reads):
        # a record written while l2_vm_quota was a spec field reads only
        # if the field holds its old default; otherwise it is a miss
        key = spec_key(SPEC)
        payload = result_to_dict(small_result)
        payload["spec"]["l2_vm_quota"] = value
        (tmp_path / f"{key}.json").write_text(json.dumps({
            "store_schema": STORE_SCHEMA_VERSION, "spec_key": key,
            "result": payload}))
        fresh = ResultStore(tmp_path)
        loaded = fresh.get(SPEC)
        assert (loaded is not None) == reads
        assert fresh.stats.corrupt == (0 if reads else 1)
        if reads:
            assert loaded.spec == small_result.spec

    def test_schema_version_mismatch_rejected(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        record_path = tmp_path / f"{key}.json"
        record = json.loads(record_path.read_text())
        record["store_schema"] = STORE_SCHEMA_VERSION + 1
        record_path.write_text(json.dumps(record))
        fresh = ResultStore(tmp_path)
        assert fresh.get(SPEC) is None
        assert fresh.stats.schema_mismatches == 1

    def test_corrupt_record_tolerated(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        (tmp_path / f"{key}.json").write_text("{ not json !!!")
        fresh = ResultStore(tmp_path)
        assert fresh.get(SPEC) is None
        assert fresh.stats.corrupt == 1
        # and the store still accepts a rewrite afterwards
        fresh.put(SPEC, small_result)
        assert ResultStore(tmp_path).get(SPEC) is not None

    def test_truncated_record_tolerated(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        record_path = tmp_path / f"{key}.json"
        record_path.write_text(record_path.read_text()[:100])
        assert ResultStore(tmp_path).get(SPEC) is None

    def test_wrong_key_in_record_tolerated(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        record_path = tmp_path / f"{key}.json"
        record = json.loads(record_path.read_text())
        record["spec_key"] = "0" * 64
        record_path.write_text(json.dumps(record))
        fresh = ResultStore(tmp_path)
        assert fresh.get(SPEC) is None
        assert fresh.stats.corrupt == 1

    def test_path_that_is_a_file_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        bogus = tmp_path / "not-a-dir"
        bogus.write_text("")
        with pytest.raises(ConfigurationError, match="not a directory"):
            ResultStore(bogus)

    def test_no_temp_files_left_behind(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, small_result)
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []


WRITER_SCRIPT = """
import json, sys
from repro.core.experiment import ExperimentSpec
from repro.core.store import ResultStore, result_from_dict

store_dir, payload_path, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
result = result_from_dict(json.loads(open(payload_path).read()))
store = ResultStore(store_dir)
for _ in range(rounds):
    store.put(result.spec, result)
"""


class TestConcurrentWriters:
    def test_atomic_writes_under_concurrency(self, small_result, tmp_path):
        """N processes hammering put() on the same key never expose a
        torn record to concurrent readers."""
        store_dir = tmp_path / "store"
        payload_path = tmp_path / "payload.json"
        payload_path.write_text(json.dumps(result_to_dict(small_result)))

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        writers = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER_SCRIPT,
                 str(store_dir), str(payload_path), "40"],
                env=env,
            )
            for _ in range(4)
        ]
        corrupt_reads = 0
        while any(w.poll() is None for w in writers):
            reader = ResultStore(store_dir)
            reader.get(SPEC)
            corrupt_reads += reader.stats.corrupt
            time.sleep(0.005)
        for writer in writers:
            assert writer.wait() == 0
        assert corrupt_reads == 0
        final = ResultStore(store_dir)
        assert final.get(SPEC) is not None
        assert final.stats.corrupt == 0


class TestDefaultStoreIntegration:
    def test_run_experiment_uses_default_store(self, tmp_path):
        set_default_store(ResultStore(tmp_path))
        run_experiment(SPEC)
        assert len(list(get_default_store().disk_keys())) == 1

    def test_clear_result_cache_keeps_disk(self, tmp_path):
        set_default_store(ResultStore(tmp_path))
        run_experiment(SPEC)
        repro.clear_result_cache()
        assert len(get_default_store()) == 0
        # disk tier still warm
        assert get_default_store().get(SPEC) is not None

    def test_use_cache_false_bypasses_store(self, small_result):
        store = ResultStore()
        run_experiment(SPEC, use_cache=False, store=store)
        assert len(store) == 0


class TestStoreCounters:
    """StoreStats and the mirrored telemetry counters track every
    memory hit, disk hit, miss, and write."""

    def test_stats_track_tiers(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(SPEC) is None
        assert store.stats.misses == 1
        store.put(SPEC, small_result)
        assert store.stats.writes == 1
        assert store.get(SPEC) is not None
        assert store.stats.memory_hits == 1

        # a fresh instance on the same directory can only hit disk,
        # then promotes the record into its memory tier
        warm = ResultStore(tmp_path)
        assert warm.get(SPEC) is not None
        assert warm.stats.disk_hits == 1
        assert warm.get(SPEC) is not None
        assert warm.stats.memory_hits == 1
        assert warm.stats.hits == 2
        assert warm.stats.misses == 0

    def test_telemetry_counters_mirror_stats(self, small_result):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        store = ResultStore(telemetry=telemetry)
        store.get(SPEC)
        store.put(SPEC, small_result)
        store.get(SPEC)
        counters = telemetry.counters
        assert counters["store.misses"].value == 1
        assert counters["store.writes"].value == 1
        assert counters["store.memory_hits"].value == 1
        assert "store.disk_hits" not in counters

    def test_null_telemetry_by_default(self, small_result):
        store = ResultStore()
        store.get(SPEC)
        store.put(SPEC, small_result)
        assert store.get(SPEC) is not None
        # the default hub is the shared no-op: nothing is recorded
        assert not store.telemetry.enabled


class TestSeriesSidecars:
    def test_round_trip(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, small_result)
        series = {"vm0.miss_rate": [[5000, 0.25], [10000, 0.5]]}
        store.put_series(SPEC, series)
        assert store.get_series(SPEC) == series

    def test_disk_round_trip_across_instances(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, small_result)
        store.put_series(SPEC, {"queue.memory": [[5000, 1.5]]})
        warm = ResultStore(tmp_path)
        assert warm.get_series(SPEC) == {"queue.memory": [[5000, 1.5]]}

    def test_missing_series_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get_series(SPEC) is None

    def test_sidecars_not_listed_as_result_keys(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        store.put_series(SPEC, {"vm0.miss_rate": [[1, 0.1]]})
        assert list(store.disk_keys()) == [key]

    def test_corrupt_sidecar_tolerated(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        store.put_series(SPEC, {"vm0.miss_rate": [[1, 0.1]]})
        (tmp_path / f"{key}.series.json").write_text("{not json")
        warm = ResultStore(tmp_path)
        assert warm.get_series(SPEC) is None


class TestGetByKey:
    def test_key_lookup_matches_spec_lookup(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        assert store.get_by_key(key) is store.get(SPEC)

    def test_unknown_key_is_a_counted_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get_by_key("0" * 64) is None
        assert store.stats.misses == 1

    def test_disk_hit_promotes_to_memory(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        warm = ResultStore(tmp_path)
        assert warm.get_by_key(key) is not None
        assert warm.stats.disk_hits == 1
        assert warm.get_by_key(key) is not None
        assert warm.stats.memory_hits == 1


@pytest.fixture
def encodings(monkeypatch):
    """Count the store's ``result_to_dict`` calls."""
    import repro.core.store as store_mod

    calls = []
    real = store_mod.result_to_dict

    def counted(result):
        calls.append(result)
        return real(result)

    monkeypatch.setattr(store_mod, "result_to_dict", counted)
    return calls


class TestEncodedByKey:
    def test_bytes_are_the_compact_encoding(self, small_result):
        store = ResultStore()
        key = store.put(SPEC, small_result)
        assert store.encoded_by_key(key) == \
            json.dumps(result_to_dict(small_result)).encode("utf-8")

    def test_memory_only_encodes_once_on_first_read(self, small_result,
                                                    encodings):
        store = ResultStore()
        key = store.put(SPEC, small_result)
        assert encodings == []  # a memory-only put does not encode
        first = store.encoded_by_key(key)
        assert store.encoded_by_key(key) is first
        assert len(encodings) == 1
        assert store.stats.memory_hits == 2

    def test_disk_put_encodes_once_for_record_and_reads(
            self, small_result, tmp_path, encodings):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        encoded = store.encoded_by_key(key)
        assert len(encodings) == 1
        record = json.loads((tmp_path / f"{key}.json").read_bytes())
        assert record == {"store_schema": STORE_SCHEMA_VERSION,
                          "spec_key": key, "result": json.loads(encoded)}

    def test_clear_memory_drops_the_bytes(self, small_result, tmp_path,
                                          encodings):
        memory_only = ResultStore()
        key = memory_only.put(SPEC, small_result)
        memory_only.encoded_by_key(key)
        memory_only.clear_memory()
        assert memory_only.encoded_by_key(key) is None
        assert memory_only.stats.misses == 1
        on_disk = ResultStore(tmp_path)
        on_disk.put(SPEC, small_result)
        on_disk.clear_memory()
        encodings.clear()
        assert json.loads(on_disk.encoded_by_key(key)) \
            == result_to_dict(small_result)
        assert len(encodings) == 1
        assert on_disk.stats.disk_hits == 1

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_later_put_replaces_the_bytes(self, small_result, tmp_path,
                                          on_disk):
        import dataclasses

        store = ResultStore(tmp_path if on_disk else None)
        key = store.put(SPEC, small_result)
        store.encoded_by_key(key)
        later = dataclasses.replace(small_result,
                                    final_time=small_result.final_time + 1)
        store.put(SPEC, later)
        assert json.loads(store.encoded_by_key(key))["final_time"] \
            == small_result.final_time + 1

    def test_unknown_key_is_a_counted_miss(self):
        store = ResultStore()
        assert store.encoded_by_key("0" * 64) is None
        assert store.stats.misses == 1


class TestAtomicWriteHygiene:
    def test_no_temp_files_left_behind(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        store.put(SPEC, small_result)
        store.put_series(SPEC, {"vm0.miss_rate": [[1, 0.1]]})
        leftovers = list(tmp_path.glob(".*.tmp")) + \
            list(tmp_path.glob("*.tmp"))
        assert leftovers == []

    def test_temp_names_are_writer_unique(self, tmp_path):
        """Two processes writing the same record never share a temp
        file: the name embeds the pid and a per-process counter."""
        from repro.core.store import _TMP_COUNTER, _atomic_write

        target = tmp_path / "record.json"
        before = next(_TMP_COUNTER)
        _atomic_write(target, "{}")
        _atomic_write(target, "{}")
        after = next(_TMP_COUNTER)
        assert after >= before + 3  # each write consumed a fresh number
        assert target.read_text() == "{}"

    def test_failed_write_cleans_up_its_temp(self, tmp_path):
        from repro.core.store import _atomic_write

        target = tmp_path / "sub" / "record.json"
        with pytest.raises(FileNotFoundError):
            _atomic_write(target, "{}")  # parent dir missing
        assert list(tmp_path.glob("**/.*")) == []


class TestCorruptRecordTolerance:
    def test_torn_record_is_a_counted_miss(self, small_result, tmp_path):
        from repro.obs.telemetry import Telemetry

        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        (tmp_path / f"{key}.json").write_text('{"torn')

        telemetry = Telemetry()
        fresh = ResultStore(tmp_path, telemetry=telemetry)
        assert fresh.get(SPEC) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        assert telemetry.counters["store.corrupt"].value == 1

    def test_corrupt_series_is_counted(self, small_result, tmp_path):
        from repro.obs.telemetry import Telemetry

        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        store.put_series(SPEC, {"vm0.miss_rate": [[1, 0.1]]})
        (tmp_path / f"{key}.series.json").write_text("[1, 2, 3]")

        telemetry = Telemetry()
        fresh = ResultStore(tmp_path, telemetry=telemetry)
        assert fresh.get_series(SPEC) is None
        assert fresh.stats.corrupt == 1
        assert telemetry.counters["store.corrupt"].value == 1

    def test_series_schema_mismatch_is_counted(self, small_result,
                                               tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        store.put_series(SPEC, {"vm0.miss_rate": [[1, 0.1]]})
        sidecar = tmp_path / f"{key}.series.json"
        payload = json.loads(sidecar.read_text())
        payload["store_schema"] = 999
        sidecar.write_text(json.dumps(payload))

        fresh = ResultStore(tmp_path)
        assert fresh.get_series(SPEC) is None
        assert fresh.stats.schema_mismatches == 1
        assert fresh.stats.corrupt == 0

    def test_series_key_mismatch_is_corrupt(self, small_result, tmp_path):
        store = ResultStore(tmp_path)
        key = store.put(SPEC, small_result)
        store.put_series(SPEC, {"vm0.miss_rate": [[1, 0.1]]})
        sidecar = tmp_path / f"{key}.series.json"
        payload = json.loads(sidecar.read_text())
        payload["spec_key"] = "f" * 64
        sidecar.write_text(json.dumps(payload))

        fresh = ResultStore(tmp_path)
        assert fresh.get_series(SPEC) is None
        assert fresh.stats.corrupt == 1
