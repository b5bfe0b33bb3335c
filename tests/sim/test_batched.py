"""Unit tests for the batched (epoch-folded) engine."""

import numpy as np
import pytest

import repro.sim.batched as batched_mod
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.errors import SimulationError
from repro.sim import BatchedEngine, MemoryReference, ThreadContext
from repro.workloads.generator import ThreadTrace
from repro.workloads.library import WORKLOADS


def _spec(**overrides):
    params = dict(mix="mixA", measured_refs=600, warmup_refs=300, seed=1,
                  engine_mode="batched")
    params.update(overrides)
    return ExperimentSpec(**params)


class TestTakeBatch:
    """ThreadTrace.take_batch is the engine's bulk entry point: it must
    yield exactly the iterator's stream, in order."""

    def _trace(self, seed=7):
        return ThreadTrace(WORKLOADS["tpch"], thread_index=0, base_block=0,
                           rng=np.random.default_rng(seed), batch_size=64)

    def test_matches_iterator_stream(self):
        a, b = self._trace(), self._trace()
        expected = [next(a) for _ in range(500)]
        blocks, writes, thinks = b.take_batch(500)
        assert list(zip(blocks, writes, thinks)) == expected

    def test_interleaves_with_iterator(self):
        a, b = self._trace(), self._trace()
        expected = [next(a) for _ in range(150)]
        first = next(b)
        blocks, writes, thinks = b.take_batch(100)
        rest = [next(b) for _ in range(49)]
        got = [first] + list(zip(blocks, writes, thinks)) + rest
        assert got == expected

    def test_rejects_nonpositive(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            self._trace().take_batch(0)

    def test_crosses_phase_boundaries(self):
        # refills stop at phase ends (37 and 50 refs), shorter than the
        # batch, so every take_batch below concatenates several refills
        from repro.workloads.phases import Phase

        phases = [Phase("burst", 37, (("think_mean", 3.0),)),
                  Phase("calm", 50, (("p_hot", 0.1),))]

        def trace():
            return ThreadTrace(WORKLOADS["tpch"], thread_index=0,
                               base_block=0, rng=np.random.default_rng(3),
                               batch_size=64, phases=phases)

        a, b = trace(), trace()
        expected = [next(a) for _ in range(700)]
        got = []
        for n in (100, 1, 199, 400):
            got.extend(zip(*b.take_batch(n)))
        assert got == expected

    def test_load_scale_matches_iterator(self):
        a, b = self._trace(), self._trace()
        a.set_load_scale(0.5)
        b.set_load_scale(0.5)
        expected = [next(a) for _ in range(300)]
        columns = b.take_batch(300)
        assert [col.dtype for col in columns] == [np.int64] * 3
        assert list(zip(*columns)) == expected
        assert any(t for (_b, _w, t) in expected)


class TestPrivateFold:
    """The numpy private fold must agree with its pure-Python oracle,
    including on epochs that touch only a handful of blocks (where the
    L1 threshold ``c1 * n / distinct`` exceeds the epoch length), on
    residents carried over from earlier epochs and on the cut to
    ``c1`` at the epoch boundary."""

    @pytest.mark.parametrize("working_set", [1, 2, 5, 17, 64, 300])
    def test_numpy_matches_python(self, working_set):
        from repro.sim._batchfold import PrivateState, fold_private

        rng = np.random.default_rng(working_set)
        fast, slow = PrivateState(4, 64), PrivateState(4, 64)
        carried = truncated = False
        for epoch in range(6):
            # the working set drifts and the epoch length alternates, so
            # residents carry over touched, survive untouched or age out
            base = epoch * (working_set // 3)
            blocks = (base + rng.integers(0, working_set, (512, 40)[epoch % 2])).tolist()
            before = set(slow.resident_blocks())
            carried |= bool(before & set(blocks))
            truncated |= len(before | set(blocks)) > 64
            expected = fold_private(slow, blocks, use_numpy=False)
            got = fold_private(fast, blocks, use_numpy=True)
            assert got.tolist() == expected
            assert fast.resident_blocks() == slow.resident_blocks()
            assert len(slow.resident_blocks()) <= 64
        assert carried
        assert truncated == (working_set >= 64)

    def test_self_check(self):
        from repro.sim._batchfold import self_check

        assert self_check()


class TestConstruction:
    def _threads(self, cores=(0, 1)):
        def stream():
            block = 0
            while True:
                yield MemoryReference(block, 0, 0)
                block += 1

        return [
            ThreadContext(thread_id=i, vm_id=0, core_id=core,
                          references=stream(), measured_refs=10,
                          warmup_refs=0)
            for i, core in enumerate(cores)
        ]

    def _machine(self):
        from repro.machine import Chip, MachineConfig

        return Chip(MachineConfig(num_cores=16).scaled(1 / 16))

    def test_rejects_empty_threads(self):
        with pytest.raises(SimulationError):
            BatchedEngine(self._machine(), [])

    def test_rejects_overcommitted_core(self):
        with pytest.raises(SimulationError, match="more than one thread"):
            BatchedEngine(self._machine(), self._threads(cores=(3, 3)))

    def test_rejects_bad_epoch(self):
        with pytest.raises(SimulationError, match="epoch_refs"):
            BatchedEngine(self._machine(), self._threads(), epoch_refs=0)

    def test_rejects_numpy_request_without_numpy(self, monkeypatch):
        monkeypatch.setattr(batched_mod, "HAVE_NUMPY", False)
        with pytest.raises(SimulationError, match="numpy is unavailable"):
            BatchedEngine(self._machine(), self._threads(), use_numpy=True)

    def test_numpy_default_follows_availability(self, monkeypatch):
        monkeypatch.setattr(batched_mod, "HAVE_NUMPY", False)
        engine = BatchedEngine(self._machine(), self._threads())
        assert engine.use_numpy is False


class TestFallbackIdentity:
    """The pure-Python fold must be bit-identical to the numpy fold —
    the fallback changes speed, never results."""

    def test_run_experiment_identical_without_numpy(self, monkeypatch):
        spec = _spec()
        fast = run_experiment(spec, use_cache=False)
        monkeypatch.setattr(batched_mod, "HAVE_NUMPY", False)
        slow = run_experiment(spec, use_cache=False)
        assert fast.vm_metrics == slow.vm_metrics
        assert fast.chip_summary == slow.chip_summary


class TestBatchedRun:
    def test_measured_refs_exact(self):
        result = run_experiment(_spec(), use_cache=False)
        for vm in result.vm_metrics:
            assert vm.refs > 0
            assert vm.refs % 600 == 0  # 600 measured refs per thread

    def test_deterministic(self):
        a = run_experiment(_spec(), use_cache=False)
        b = run_experiment(_spec(), use_cache=False)
        assert a.vm_metrics == b.vm_metrics
        assert a.chip_summary == b.chip_summary

    def test_summary_counters_populated(self):
        result = run_experiment(_spec(), use_cache=False)
        summary = result.chip_summary
        assert summary.memory_reads > 0
        assert 0.0 <= summary.directory_cache_hit_rate <= 1.0
        assert summary.mesh_mean_latency > 0

    def test_occupancy_snapshot_populated(self):
        spec = _spec(mix="mix1", sharing="shared-4")
        result = run_experiment(spec, use_cache=False)
        assert result.occupancy, "no per-domain occupancy snapshot"
        assert any(domain for domain in result.occupancy)
        for domain in result.occupancy:
            for lines in domain.values():
                assert lines >= 0
        assert result.vm_metrics[0].cycles > 0

    def test_epoch_probe_sees_monotonic_time(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        result = run_experiment(_spec(mix="mix1"), use_cache=False,
                                telemetry=telemetry, epoch=2000)
        assert result.series, "epoch probe produced no series"
        for series in result.series.values():
            times = [point[0] for point in series]
            assert times == sorted(times)

    def test_qos_control_runs_under_batched(self):
        spec = _spec(mix="mix7", sharing="shared", qos_policy="ucp",
                     qos_epoch=5000)
        result = run_experiment(spec, use_cache=False)
        assert result.qos is not None
        assert result.qos["policy"] == "ucp"
