"""Tests for the reference-stream generators."""

import hashlib

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.rng import RngFactory
from repro.workloads.generator import ThreadTrace, WorkloadInstance
from repro.workloads.library import WORKLOADS, get_profile
from repro.workloads.phases import get_phase_plan
from repro.workloads.profile import WorkloadProfile


def profile(**kw):
    defaults = dict(
        name="gen-test",
        footprint_blocks=20_000,
        frac_shared_read=0.4,
        frac_migratory=0.05,
        p_hot=0.3,
        hot_blocks_per_thread=16,
        p_shared_read=0.3,
        p_migratory=0.1,
        scan_window=200,
        scan_lag=50,
        scan_slide=0.1,
        think_mean=2.0,
    )
    defaults.update(kw)
    return WorkloadProfile(**defaults)


def trace(thread=0, base=0, seed=1, prof=None, batch=256):
    prof = prof or profile()
    rng = RngFactory(seed).stream(f"t{thread}")
    return ThreadTrace(prof, thread, base, rng, batch_size=batch)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = [next(trace(seed=5)) for _ in range(500)]
        b = [next(trace(seed=5)) for _ in range(500)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [next(trace(seed=5))[0] for _ in range(200)]
        b = [next(trace(seed=6))[0] for _ in range(200)]
        assert a != b

    def test_threads_have_distinct_streams(self):
        p = profile()
        f = RngFactory(3)
        t0 = ThreadTrace(p, 0, 0, f.stream("0"))
        t1 = ThreadTrace(p, 1, 0, f.stream("1"))
        a = [next(t0)[0] for _ in range(200)]
        b = [next(t1)[0] for _ in range(200)]
        assert a != b


class TestStreamShape:
    def test_blocks_within_partition(self):
        p = profile()
        t = trace(base=100_000, prof=p)
        for _ in range(5000):
            block, _w, _t = next(t)
            assert 100_000 <= block < 100_000 + p.partition_blocks

    def test_private_blocks_disjoint_between_threads(self):
        p = profile(p_hot=0.0, p_shared_read=0.0, p_migratory=0.0)
        f = RngFactory(1)
        t0 = ThreadTrace(p, 0, 0, f.stream("0"))
        t3 = ThreadTrace(p, 3, 0, f.stream("3"))
        blocks0 = {next(t0)[0] for _ in range(2000)}
        blocks3 = {next(t3)[0] for _ in range(2000)}
        assert not blocks0 & blocks3

    def test_shared_blocks_overlap_between_threads(self):
        p = profile(p_hot=0.0, p_shared_read=1.0, p_migratory=0.0,
                    scan_lag=10)
        f = RngFactory(1)
        t0 = ThreadTrace(p, 0, 0, f.stream("0"))
        t1 = ThreadTrace(p, 1, 0, f.stream("1"))
        blocks0 = {next(t0)[0] for _ in range(3000)}
        blocks1 = {next(t1)[0] for _ in range(3000)}
        assert blocks0 & blocks1

    def test_write_fraction_tracks_probabilities(self):
        p = profile(p_hot=0.0, p_shared_read=0.0, p_migratory=0.0,
                    write_prob_private=0.25)
        t = trace(prof=p)
        writes = sum(next(t)[1] for _ in range(20_000))
        assert 0.22 < writes / 20_000 < 0.28

    def test_think_time_mean(self):
        p = profile(think_mean=3.0)
        t = trace(prof=p)
        thinks = [next(t)[2] for _ in range(20_000)]
        assert 2.7 < np.mean(thinks) < 3.3

    def test_zero_think(self):
        p = profile(think_mean=0.0)
        t = trace(prof=p)
        assert all(next(t)[2] == 0 for _ in range(100))

    def test_hot_pool_concentration(self):
        p = profile(p_hot=1.0, p_shared_read=0.0, p_migratory=0.0,
                    hot_blocks_per_thread=16)
        t = trace(prof=p)
        blocks = {next(t)[0] for _ in range(2000)}
        assert len(blocks) <= 16


class TestScanPipeline:
    def test_scan_advances(self):
        p = profile(p_hot=0.0, p_shared_read=1.0, p_migratory=0.0,
                    scan_slide=1.0, scan_window=50)
        t = trace(prof=p)
        early = [next(t)[0] for _ in range(100)]
        for _ in range(5000):
            next(t)
        late = [next(t)[0] for _ in range(100)]
        assert min(late) > min(early)

    def test_followers_trail_leader(self):
        p = profile(p_hot=0.0, p_shared_read=1.0, p_migratory=0.0,
                    scan_slide=0.0, scan_window=10, scan_lag=100)
        f = RngFactory(1)
        leader = ThreadTrace(p, 0, 0, f.stream("0"))
        follower = ThreadTrace(p, 1, 0, f.stream("1"))
        lead_blocks = [next(leader)[0] for _ in range(200)]
        follow_blocks = [next(follower)[0] for _ in range(200)]
        assert min(lead_blocks) > min(follow_blocks)


class TestValidation:
    def test_bad_thread_index(self):
        with pytest.raises(WorkloadError):
            trace(thread=7)

    def test_bad_batch(self):
        with pytest.raises(WorkloadError):
            trace(batch=0)


class TestWorkloadInstance:
    def test_builds_all_threads(self):
        p = profile()
        inst = WorkloadInstance(p, instance_id=0, base_block=0,
                                rng_stream=RngFactory(1).stream)
        assert inst.num_threads == 4
        assert len({id(t) for t in inst.traces}) == 4

    def test_instances_have_distinct_streams(self):
        p = profile()
        f = RngFactory(1)
        a = WorkloadInstance(p, 0, 0, f.stream)
        b = WorkloadInstance(p, 1, 0, f.stream)
        blocks_a = [next(a.trace(0))[0] for _ in range(100)]
        blocks_b = [next(b.trace(0))[0] for _ in range(100)]
        assert blocks_a != blocks_b


# ----------------------------------------------------------------------
# pinned streams: sha256 digests of the exact reference sequence
# ----------------------------------------------------------------------
#
# The digests pin the generator's output byte for byte: every library
# profile through both entry points, phases, a mid-buffer retarget, a
# stream resumed mid-buffer and a load scale.  A change to how the stream
# is produced (draw order, draw sizes, which draws are made) moves them;
# never re-pin one to make a refactor pass.

# uneven take_batch sizes: single refs, a batch crossing a refill, one
# larger than a whole refill, and a refill-sized batch off alignment
_CHUNKS = (1, 1023, 3000, 77, 4096, 5000, 1803)


def _digest(rows):
    """sha256 of an ``(n, 3)`` int64 reference array, little-endian."""
    array = np.ascontiguousarray(rows, dtype="<i8").reshape(-1, 3)
    return hashlib.sha256(array.tobytes()).hexdigest()


def _stack(batches):
    return np.concatenate([np.column_stack(b) for b in batches])


def _library_trace(name, phases=None, seed=11):
    prof = get_profile(name)
    thread = prof.threads - 1  # a trailing thread: non-zero scan start
    rng = RngFactory(seed).stream(f"workload/{name}/0/thread/{thread}")
    return ThreadTrace(prof, thread, 1 << 20, rng, phases=phases)


def _batched_stream(trace, chunks=_CHUNKS):
    return _digest(_stack([trace.take_batch(n) for n in chunks]))


def _iterated_stream(trace, n=6000):
    return _digest([next(trace) for _ in range(n)])


def _stream_case(case):
    """The digest of one named stream case (see ``STREAM_DIGESTS``)."""
    kind, _, name = case.partition(":")
    if kind == "batch":
        return _batched_stream(_library_trace(name))
    if kind == "next":
        return _iterated_stream(_library_trace(name))
    if kind == "phased":
        t = _library_trace(name, phases=get_phase_plan("burst"))
        return _batched_stream(t, (1000, 3500, 4000, 2500, 9000))
    if kind == "mixed":
        t = _library_trace(name)
        parts = [np.column_stack(t.take_batch(700))]
        parts.append(np.array([next(t) for _ in range(500)]))
        parts.append(np.column_stack(t.take_batch(6000)))
        parts.append(np.array([next(t) for _ in range(3000)]))
        return _digest(np.concatenate(parts))
    if kind == "retarget":
        t = _library_trace(name)
        parts = [np.column_stack(t.take_batch(1000))]
        t.retarget(p_hot=0.1, p_shared_read=0.4, think_mean=4.0,
                   skew_private=2.0)
        parts.append(np.column_stack(t.take_batch(5000)))
        parts.append(np.array([next(t) for _ in range(300)]))
        t.retarget(p_hot=0.5, p_shared_read=0.1,  # mid iterator buffer
                   think_mean=1.0)
        parts.append(np.column_stack(t.take_batch(2000)))
        return _digest(np.concatenate(parts))
    if kind == "scaled":
        t = _library_trace(name)
        parts = [np.column_stack(t.take_batch(500))]
        t.set_load_scale(0.5)
        parts.append(np.column_stack(t.take_batch(3000)))
        parts.append(np.array([next(t) for _ in range(200)]))
        t.set_load_scale(1.7)
        parts.append(np.column_stack(t.take_batch(2000)))
        return _digest(np.concatenate(parts))
    if kind == "resumed":  # what follows 1500 refs, mid-buffer
        t = _library_trace(name)
        t.take_batch(1500)
        return _batched_stream(t, (100, 6000))
    if kind == "nopool":  # shared references fold into private
        prof = profile(frac_shared_read=0.0, p_shared_read=0.3)
        return _batched_stream(trace(prof=prof, batch=4096))
    if kind == "nothink":
        prof = profile(think_mean=0.0)
        return _batched_stream(trace(prof=prof, batch=4096))
    raise AssertionError(case)


STREAM_DIGESTS = {
    "batch:btree":
        "5e0b73796f53dc999b268d65d29e035f0d818e797851b0aee8938d8825d18432",
    "batch:gups":
        "cb0aa3bb842e155d59556c38e249f58b92e3c08df85ef1219148e419a9153957",
    "batch:silo":
        "40ddc9f194ce4d240ccfb821a629f471d72d75f30c50f885fe2b6b91688be051",
    "batch:specjbb":
        "d686e7e728616201564b95d0fccb69effe64a9098baba2516bc6982ad9a21572",
    "batch:specweb":
        "e111e38c6e9ca985f599bb8cd4e7e3c97b4dfba6baa848a1800b26f72301b77f",
    "batch:tpch":
        "b8f90d599b9fff1d47031d2597cfff3f7b56a2a975b09a73c91da90db7a2163b",
    "batch:tpcw":
        "12c59100eab9eddddf14ee69fc65a03f867f3c3a66f0433c3ad5047a2735ab12",
    "batch:xsbench":
        "7f780c49aebf0704d36a59f06952fb3d12c89a1ca439013474ef77ea7d48f8d4",
    "mixed:specweb":
        "c7d7d1f1aa9a22ac5a44ac785e3e3d6698cafe50e92189fd791ee44c7372c7a5",
    "next:btree":
        "ec1f430ad6d907725979d18862fb1ec412ee942ce2e7e55283c7301b4c230729",
    "next:gups":
        "849b166a806a23a3c8e46443adb1449f4eca2f6a5724a6ebbd4b880c7a3d2fe2",
    "next:silo":
        "3818f78369854713e166fff5264de8788329a4533e53dd4f7acd4bdc9d6a6990",
    "next:specjbb":
        "1d6051b542da10b9cecf9741853ccf849fbfd7874fe3b2f90749b2efc3ad5053",
    "next:specweb":
        "5d99742887b297b22f815bdd63f58dc27f253f63878369fa0e4f2dd23ddc7eae",
    "next:tpch":
        "17b54304871da4696645a5ed329a6b25d672a4e999f71df8788545fb09a3b59e",
    "next:tpcw":
        "03945d6e8d4063258befd7b528f0f48c93add1a7ffe17c5b3aa23ebe971e52f0",
    "next:xsbench":
        "b7d57da8c77579e501434a47a62ff74baa7bd12b1c072275d81ba0b90e6ef919",
    "nopool:":
        "2115347a6094bece1d14ebb81def2e21aa1298fdd875f4aa76acd3c75b0ab855",
    "nothink:":
        "5fa79a930282dd87fd5e72fc1ee4013d8530dac10cf2d647ac3846605c005b10",
    "phased:specjbb":
        "de01587b67e33618274e8e89a494382f9561e09a327bd148ae27b95421d1ee47",
    "phased:tpch":
        "744832011b0844239d516eedc79e7fcdb3d32700d55652513d918f0c0a9a15c4",
    "resumed:gups":
        "1b47b0c3bdceeea9db7a21779db147d3f384a3bd7926de53e7dfc16f538cb3ca",
    "resumed:specjbb":
        "e022ed1317787ee51485bd10753be0d05fc10359865940fdf8b722114e043d4e",
    "resumed:tpch":
        "790bd439987106b155e95f03af11cb8e36bff6973ad0086900d76e733d8e0f1a",
    "retarget:silo":
        "98e63055014f030f7627f53d0b0e42a7fbe0c22759b283d12fd84c2e20627fe5",
    "retarget:tpcw":
        "b4e1e6778597855391787630e722880fed037c6a41a1fe880cf1e342f0b86481",
    "scaled:tpch":
        "3d3c7d063f9dc8e0c5cffc621d7eca25f66d4fe9e518af4065c5d7ec5428af4d",
}

class TestPinnedStreams:
    def test_every_library_profile_is_pinned(self):
        for kind in ("batch", "next"):
            assert {f"{kind}:{name}" for name in WORKLOADS} <= set(
                STREAM_DIGESTS)

    @pytest.mark.parametrize("case", sorted(STREAM_DIGESTS))
    def test_stream_digest(self, case):
        assert _stream_case(case) == STREAM_DIGESTS[case]

    def test_entry_points_agree(self):
        """``take_batch`` in uneven chunks and ``__next__`` yield the
        same references."""
        for name in ("tpch", "specjbb"):
            batched = _stack(
                [_library_trace(name).take_batch(sum(_CHUNKS))])
            iterated = _library_trace(name)
            rows = np.array([next(iterated) for _ in range(sum(_CHUNKS))])
            assert np.array_equal(batched, rows)

    @pytest.mark.parametrize("p", [1 / 3, 0.2, 0.05, 0.5])
    def test_geometric_draws_are_chunkable(self, p):
        """A think-time draw may be split into chunks as references are
        consumed: numpy's ``geometric`` must give the same values, and
        leave the generator in the same state, whether drawn in one
        call or in pieces."""
        whole = np.random.default_rng(5)
        pieces = np.random.default_rng(5)
        one = whole.geometric(p, 4096)
        chunked = np.concatenate(
            [pieces.geometric(p, n) for n in (1, 1023, 7, 2000, 1065)])
        assert np.array_equal(one, chunked)
        assert whole.bit_generator.state == pieces.bit_generator.state
