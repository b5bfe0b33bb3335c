"""Reference-stream generators.

:class:`ThreadTrace` turns a :class:`~repro.workloads.profile.WorkloadProfile`
into an infinite, deterministic stream of ``(block, is_write, think)``
tuples for one thread.  Random numbers are drawn vectorized, a refill
(``batch_size`` references) at a time, but turned into references only
as far as they are consumed: a short run that takes a fraction of a
refill skips the block arithmetic and think-time draws of the rest.
Each refill keeps its raw draws plus three int64 columns filled up to
the consumed cursor, sliced by the batched engine
(:meth:`ThreadTrace.take_batch`) and read as tuples by ``__next__``.

The pipelined-scan model of the shared-read pool (see the profile
module docstring) is implemented here: thread ``t`` samples uniformly
within a window of ``scan_window`` blocks whose start advances
``scan_slide`` blocks per reference, offset behind thread ``t-1`` by
``scan_lag`` blocks on the same circular track.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from ..errors import WorkloadError
from .profile import WorkloadProfile

__all__ = ["ThreadTrace", "WorkloadInstance"]

Ref = Tuple[int, int, int]
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]

_NO_REFS: Columns = tuple(np.zeros(0, dtype=np.int64) for _ in range(3))

# reference categories, in the order their draws are made
_HOT, _SHARED, _MIG, _PRIV = range(4)


class ThreadTrace:
    """Infinite reference stream of one workload thread.

    Parameters
    ----------
    profile:
        The workload's statistical model.
    thread_index:
        Index of this thread within the workload instance (0-based).
    base_block:
        First physical block of the VM's memory partition; all emitted
        blocks are offset by it, so different VMs can never alias.
    rng:
        Private random stream (see :class:`repro.sim.rng.RngFactory`).
    batch_size:
        References generated per vectorized batch.
    phases:
        Optional cyclic phase schedule (see
        :mod:`repro.workloads.phases`): each phase applies behavioural
        overrides to the profile for a bounded number of references.
        Batches never cross a phase boundary, so phase lengths are
        exact.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        thread_index: int,
        base_block: int,
        rng: np.random.Generator,
        batch_size: int = 4096,
        phases=None,
    ):
        if not 0 <= thread_index < profile.threads:
            raise WorkloadError(
                f"thread_index {thread_index} out of range for "
                f"{profile.threads}-thread profile {profile.name!r}"
            )
        if batch_size <= 0:
            raise WorkloadError("batch_size must be positive")
        self.profile = profile
        self.thread_index = thread_index
        self.base_block = base_block
        self.batch_size = batch_size
        self._rng = rng

        offsets = profile.pool_offsets()
        self._shared_base = base_block + offsets["shared_read"]
        self._mig_base = base_block + offsets["migratory"]
        self._priv_base = (
            base_block
            + offsets["private"]
            + thread_index * profile.private_blocks_per_thread
        )
        self._shared_size = profile.shared_read_blocks
        self._mig_size = profile.migratory_blocks
        self._priv_size = profile.private_blocks_per_thread
        # thread 0 leads the pipelined scan; thread t trails by t*lag
        lead = (profile.threads - 1 - thread_index) * profile.scan_lag
        self._scan_start = lead % self._shared_size if self._shared_size else 0

        self._count = 0  # total references generated (drives the scan)
        self._set_buffer(_NO_REFS)
        self._phases = tuple(phases) if phases else ()
        self._phase_profiles = tuple(
            phase.apply_to(profile) for phase in self._phases
        )
        self._phase_cycle_refs = sum(p.refs for p in self._phases)
        # scenario actuation state (see repro.scenarios): a think-cycle
        # multiplier applied at consumption time.  1.0 leaves the
        # stream untouched, so non-scenario runs stay byte-identical.
        self._load_scale = 1.0

    @property
    def partition_end(self) -> int:
        """One past the last block of the VM's partition (the base
        profile's pools; a phase may reach past it)."""
        return self.base_block + self.profile.partition_blocks

    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Ref]:
        return self

    def __next__(self) -> Ref:
        pending = self._pending
        if not pending:  # hand the buffer's rest to the iterator
            if self._pos == len(self._cols[0]):
                self._refill()
            pending = self._pending = self._pop_order()
            self._pos = len(self._cols[0])
        ref = pending.pop()
        scale = self._load_scale
        if scale != 1.0:
            return (ref[0], ref[1], int(ref[2] * scale))
        return ref

    def take_batch(self, n: int) -> Columns:
        """Consume the next ``n`` references as three int64 columns.

        Returns ``(blocks, writes, thinks)`` covering *exactly* the same
        references, in the same order, as ``n`` calls to ``__next__`` —
        the batched engine's bulk entry point.  The columns are slices
        of the trace buffer (copied only when the batch spans refills)
        and must not be written to.  Mixing ``take_batch`` and
        iteration is safe: any references already buffered for the
        iterator are consumed first.
        """
        if n <= 0:
            raise WorkloadError("take_batch size must be positive")
        if self._pending:  # take back the iterator's unconsumed tail
            self._pos = len(self._cols[0]) - len(self._pending)
            self._pending = []
        parts = []
        while n:
            if self._pos == len(self._cols[0]):
                self._refill()
            pos = self._pos
            self._pos = end = min(pos + n, len(self._cols[0]))
            self._fill(end)
            n -= end - pos
            parts.append([col[pos:end] for col in self._cols])
        blocks, writes, thinks = (
            parts[0] if len(parts) == 1
            else [np.concatenate(col) for col in zip(*parts)])
        scale = self._load_scale
        if scale != 1.0:
            thinks = (thinks * scale).astype(np.int64)
        return blocks, writes, thinks

    # ------------------------------------------------------------------
    # scenario actuation (see repro.scenarios.hook)
    # ------------------------------------------------------------------

    def set_load_scale(self, scale: float) -> None:
        """Scale all subsequent think cycles by ``scale``.

        The scenario layer's load-curve actuator: <1 models higher
        offered load (references issue faster), >1 lighter load.  The
        scale applies at consumption time, so the random streams —
        hence the *block* sequence — are unchanged, and a scale of 1.0
        restores the exact unscaled stream.
        """
        if scale <= 0:
            raise WorkloadError(
                f"load scale must be positive, got {scale}")
        self._load_scale = float(scale)

    def retarget(self, **overrides) -> None:
        """Switch the trace's behavioural parameters mid-run.

        The scenario layer's phase-switch actuator: replaces the
        profile with a behavioural variant (the same parameter set a
        :class:`~repro.workloads.phases.Phase` may override — the pool
        layout is fixed at launch) and drops any pre-generated
        references, so the switch takes effect at the very next
        reference consumed.  Deterministic: actuated at the same cycle
        with the same overrides, two runs generate identical streams.
        """
        from .phases import BEHAVIOURAL_PARAMS

        for param in overrides:
            if param not in BEHAVIOURAL_PARAMS:
                raise WorkloadError(
                    f"retarget of structural or unknown parameter "
                    f"{param!r}; allowed: {sorted(BEHAVIOURAL_PARAMS)}"
                )
        variant = self.profile.with_overrides(**overrides)
        self.profile = variant
        self._phase_profiles = tuple(
            phase.apply_to(variant) for phase in self._phases
        )
        self._fill(len(self._cols[0]))  # finish the deferred draw
        self._set_buffer(_NO_REFS)

    # the trace buffer: one refill's columns (filled up to ``_filled``),
    # a cursor, and the rest handed to the iterator as tuples in pop
    # order (last first)

    def _set_buffer(self, cols: Columns) -> None:
        self._cols = cols
        self._filled = len(cols[0])
        self._pos = 0
        self._pending = []

    def _pop_order(self) -> List[Ref]:
        pos = self._pos
        self._fill(len(self._cols[0]))
        return list(zip(*(col[pos:][::-1].tolist() for col in self._cols)))

    # ------------------------------------------------------------------

    def _current_phase(self):
        """(effective profile, refs left in the current phase)."""
        if not self._phases:
            return self.profile, self.batch_size
        position = self._count % self._phase_cycle_refs
        for phase, variant in zip(self._phases, self._phase_profiles):
            if position < phase.refs:
                return variant, phase.refs - position
            position -= phase.refs
        raise AssertionError("phase schedule exhausted")  # pragma: no cover

    def _refill(self) -> None:
        """Make the next refill's random draws, in the stream's order.

        Each reference gets a category code (hot, shared-read scan,
        migratory, private) and the raw draws its block and write flag
        are made from; :meth:`_fill` turns them into references only as
        far as they are consumed.  The think-time draw comes last in a
        refill, so it alone is deferred: ``_fill`` makes it in chunks,
        and the buffer is filled to its end before anything else draws
        from the stream (the next refill or a retarget).
        """
        profile, phase_left = self._current_phase()
        n = min(self.batch_size, phase_left)
        rng = self._rng

        u = rng.random(n)
        p_h = profile.p_hot
        p_s = p_h + profile.p_shared_read
        p_m = p_s + profile.p_migratory
        kind = (u >= p_h).astype(np.int8) + (u >= p_s) + (u >= p_m)
        present = np.bincount(kind, minlength=4) > 0
        draws = [None] * 4  # per category, the draw its blocks come from
        if present[_HOT]:
            draws[_HOT] = rng.integers(
                0, max(1, profile.hot_blocks_per_thread), n)
        if present[_SHARED] and self._shared_size:
            draws[_SHARED] = rng.integers(0, profile.scan_window, n)
        elif present[_SHARED]:
            # no shared pool configured: fold into private
            kind[kind == _SHARED] = _PRIV
            present[_PRIV] = True
        if present[_MIG]:
            draws[_MIG] = rng.random(n)
        if present[_PRIV]:
            draws[_PRIV] = rng.random(n)
        self._raw = (profile, self._count, kind, draws, rng.random(n))

        self._count += n
        self._set_buffer(tuple(np.empty(n, dtype=np.int64) for _ in range(3)))
        self._filled = 0

    def _fill(self, end: int) -> None:
        """Turn the buffer's raw draws into references up to ``end``."""
        start = self._filled
        if end <= start:
            return
        self._filled = end
        profile, count, kind, draws, write_u = self._raw
        blocks, writes, thinks = (col[start:end] for col in self._cols)
        kinds = kind[start:end]
        for code, raw in enumerate(draws):
            if raw is None:
                continue
            index = np.flatnonzero(kinds == code)
            picked = raw[start:end].take(index)
            if code == _HOT:
                picked = self._priv_base + picked
            elif code == _SHARED:
                pos = self._scan_start + (
                    (count + start + index) * profile.scan_slide
                ).astype(np.int64)
                picked = self._shared_base + (pos + picked) % self._shared_size
            elif code == _MIG:
                picked = self._mig_base + (
                    self._mig_size * picked**profile.skew_migratory
                ).astype(np.int64)
            else:  # power-law private block
                picked = self._priv_base + (
                    self._priv_size * picked**profile.skew_private
                ).astype(np.int64)
            blocks[index] = picked
        write_prob = np.array([
            profile.write_prob_private, profile.write_prob_shared,
            profile.write_prob_migratory, profile.write_prob_private])
        writes[:] = write_u[start:end] < write_prob.take(kinds)
        if profile.think_mean > 0:
            p_think = 1.0 / (1.0 + profile.think_mean)
            thinks[:] = self._rng.geometric(p_think, end - start) - 1
        else:
            thinks[:] = 0


class WorkloadInstance:
    """One running copy of a workload: all of its thread traces.

    Parameters
    ----------
    profile:
        The workload model.
    instance_id:
        Distinguishes replicated copies in a mix (e.g. the three TPC-W
        copies of Mix 1); mixed into each thread's RNG stream key.
    base_block:
        Start of the VM's physical partition.
    rng_factory_stream:
        Callable ``key -> numpy Generator`` providing named streams
        (typically ``RngFactory.stream``).
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        instance_id: int,
        base_block: int,
        rng_stream,
        batch_size: int = 4096,
        phases=None,
    ):
        self.profile = profile
        self.instance_id = instance_id
        self.base_block = base_block
        self.traces = [
            ThreadTrace(
                profile,
                thread_index=t,
                base_block=base_block,
                rng=rng_stream(f"workload/{profile.name}/{instance_id}/thread/{t}"),
                batch_size=batch_size,
                phases=phases,
            )
            for t in range(profile.threads)
        ]

    @property
    def num_threads(self) -> int:
        return self.profile.threads

    def trace(self, thread_index: int) -> ThreadTrace:
        return self.traces[thread_index]
