"""Tests for workload checkpoint save/restore."""

import json

import pytest

from repro.errors import CheckpointError, WorkloadError
from repro.sim.rng import RngFactory
from repro.workloads.checkpoint import (
    checkpoint_from_json,
    checkpoint_to_json,
    load_checkpoint,
    save_checkpoint,
)
from repro.workloads.generator import WorkloadInstance
from repro.workloads.profile import WorkloadProfile


def make_instance(instance_id=0, base=0, seed=1):
    profile = WorkloadProfile(
        name="ckpt-test", footprint_blocks=5000, scan_window=100,
        hot_blocks_per_thread=8,
    )
    return WorkloadInstance(profile, instance_id, base,
                            RngFactory(seed).stream, batch_size=64)


class TestRoundTrip:
    def test_restored_stream_continues_identically(self):
        """The paper's checkpoints guarantee identical transaction
        replay; ours guarantee identical reference replay."""
        original = make_instance()
        # warm it up mid-batch to exercise pending-buffer restoration
        for trace in original.traces:
            for _ in range(100):
                next(trace)
        text = checkpoint_to_json(original)
        continued = [[next(t) for _ in range(300)] for t in original.traces]

        restored = make_instance()
        checkpoint_from_json(restored, text)
        replayed = [[next(t) for _ in range(300)] for t in restored.traces]
        assert continued == replayed

    def test_format1_pending_restores_mid_batch(self):
        """``pending`` keeps its format-1 layout: the unconsumed rest of
        the current refill, last reference first (the iterator's pop
        order).  Such a checkpoint restores mid-batch, for the iterator
        and the batched engine's ``take_batch`` alike."""
        stream = make_instance().trace(0)
        full = [list(next(stream)) for _ in range(400)]

        original = make_instance()
        for _ in range(100):  # batch_size 64: 28 references stay buffered
            next(original.trace(0))
        payload = json.loads(checkpoint_to_json(original))
        assert payload["format_version"] == 1
        thread_state = payload["state"]["threads"][0]
        assert thread_state["pending"] == full[100:128][::-1]
        thread_state["pending"] = full[100:128][::-1]
        text = json.dumps(payload)

        restored = make_instance()
        checkpoint_from_json(restored, text)
        trace = restored.trace(0)
        got = [list(next(trace)) for _ in range(10)]
        got += [list(ref) for ref in zip(*(col.tolist()
                                           for col in trace.take_batch(90)))]
        got += [list(next(trace)) for _ in range(100)]
        assert got == full[100:300]

        batched = make_instance()
        checkpoint_from_json(batched, text)
        columns = batched.trace(0).take_batch(300)
        assert [list(ref) for ref in zip(*(col.tolist() for col in columns))
                ] == full[100:400]

    def test_file_round_trip(self, tmp_path):
        inst = make_instance()
        for _ in range(50):
            next(inst.trace(0))
        path = save_checkpoint(inst, tmp_path / "ckpt.json")
        expected = [next(inst.trace(0)) for _ in range(100)]

        fresh = make_instance()
        load_checkpoint(fresh, path)
        assert [next(fresh.trace(0)) for _ in range(100)] == expected


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(make_instance(), tmp_path / "nope.json")

    def test_malformed_json(self):
        with pytest.raises(CheckpointError):
            checkpoint_from_json(make_instance(), "{not json")

    def test_wrong_version(self):
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_from_json(make_instance(),
                                 '{"format_version": 99, "state": {}}')

    def test_missing_state(self):
        with pytest.raises(CheckpointError, match="state"):
            checkpoint_from_json(make_instance(), '{"format_version": 1}')

    def test_profile_mismatch_rejected(self):
        inst = make_instance()
        text = checkpoint_to_json(inst)
        other_profile = WorkloadProfile(
            name="other", footprint_blocks=5000, scan_window=100,
            hot_blocks_per_thread=8,
        )
        other = WorkloadInstance(other_profile, 0, 0, RngFactory(1).stream)
        with pytest.raises(WorkloadError, match="workload"):
            checkpoint_from_json(other, text)

    def test_placement_mismatch_rejected(self):
        inst = make_instance(base=0)
        text = checkpoint_to_json(inst)
        moved = make_instance(base=10_000)
        with pytest.raises(WorkloadError, match="base_block"):
            checkpoint_from_json(moved, text)
