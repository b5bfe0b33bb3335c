"""Unit tests for the batched (epoch-folded) engine."""

import numpy as np
import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.errors import SimulationError
from repro.sim import BatchedEngine, MemoryReference, ThreadContext
from repro.sim._batchfold import PrivateState, fold_private
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


def _fold_oracle(state, blocks):
    """The private fold's model, one reference at a time (see
    :mod:`repro.sim._batchfold`): the reference that ``fold_private``
    must match on levels and on the rebuilt resident order."""
    n = len(blocks)
    order = state.resident.tolist()
    m = len(order)
    ranks = {block: m - 1 - pos for pos, block in enumerate(order)}
    distinct = len(set(blocks))
    g0 = state.c0 * n / distinct
    g1 = state.c1 * n / distinct
    last = {}
    levels = []
    for i, block in enumerate(blocks):
        j = last.get(block)
        if j is None:
            r = ranks.get(block)
            gap = (i + r + 1) if r is not None else None
        else:
            gap = i - j
        if gap is not None and gap <= g0:
            levels.append(0)
        elif gap is not None and gap <= g1:
            levels.append(1)
        else:
            levels.append(2)
        last[block] = i
    # untouched survivors, then touched blocks in last-touch order, cut
    # to capacity
    survivors = [b for b in order if b not in last]
    touched = sorted(last, key=last.__getitem__)
    state.resident = np.asarray((survivors + touched)[-state.c1:],
                                dtype=np.int64)
    return levels


class TestPrivateFold:
    """The private fold must agree with its one-reference-at-a-time
    oracle, including on epochs that touch only a handful of blocks
    (where the L1 threshold ``c1 * n / distinct`` exceeds the epoch
    length), on residents carried over from earlier epochs and on the
    cut to ``c1`` at the epoch boundary."""

    @pytest.mark.parametrize("working_set", [1, 2, 5, 17, 64, 300])
    def test_numpy_matches_python(self, working_set):
        rng = np.random.default_rng(working_set)
        fast, slow = PrivateState(4, 64), PrivateState(4, 64)
        carried = truncated = False
        for epoch in range(6):
            # the working set drifts and the epoch length alternates, so
            # residents carry over touched, survive untouched or age out
            base = epoch * (working_set // 3)
            blocks = (base + rng.integers(0, working_set, (512, 40)[epoch % 2])).tolist()
            before = set(slow.resident.tolist())
            carried |= bool(before & set(blocks))
            truncated |= len(before | set(blocks)) > 64
            expected = _fold_oracle(slow, blocks)
            got = fold_private(fast, blocks)
            assert got.dtype == np.int64
            assert got.tolist() == expected
            assert fast.resident.tolist() == slow.resident.tolist()
            assert len(slow.resident) <= 64
        assert carried
        assert truncated == (working_set >= 64)

    def test_known_answers(self):
        state = PrivateState(c0=2, c1=4)
        # epoch 1: all cold; immediate reuse of 7 hits L0
        levels = fold_private(state, [7, 7, 8, 9, 7, 10])
        assert levels.tolist() == [2, 0, 2, 2, 0, 2]
        assert state.resident.tolist() == [8, 9, 7, 10]
        # epoch 2: 10 was MRU (rank 0), so its first touch is an L0
        # carry-over hit
        # and 8 (rank 3) sits past both thresholds
        levels = fold_private(state, [10, 8, 11, 12])
        assert levels.tolist() == [0, 2, 2, 2]
        assert state.resident.tolist() == [10, 8, 11, 12]
        # an empty epoch classifies nothing and keeps the residents
        resident = state.resident.tolist()
        levels = fold_private(state, [])
        assert levels.dtype == np.int64 and levels.shape == (0,)
        assert state.resident.tolist() == resident
        # a first touch always misses, even when so few distinct blocks
        # push the L1 threshold past the epoch length
        levels = fold_private(PrivateState(2, 64), [1, 2, 3, 4, 5] * 200)
        assert levels[:6].tolist() == [2, 2, 2, 2, 2, 0]


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
