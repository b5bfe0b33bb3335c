"""Epoch-granular reference folding primitives for the batched kernel.

This module holds the *stream-classification* core of
:mod:`repro.sim.batched`: given one epoch of a thread's memory
references, decide which land in the private L0/L1 and which proceed to
the shared L2 layer — without dispatching per-reference through cache
objects.

The model is deliberately epoch-granular so that it can be computed
either vectorized (numpy) or in pure Python with *identical* results:

* Within an epoch, a reference hits a private level iff the gap to the
  previous occurrence of its block is at most ``g = capacity * n / U``
  references, where ``n`` is the epoch length and ``U`` the number of
  distinct blocks touched — the classic stack-distance density
  argument: a gap of ``g`` references covers ``g * U / n`` distinct
  blocks on average, so LRU retains the block while that stays below
  the capacity.
* Blocks resident at the start of the epoch behave as if previously
  touched ``rank + 1`` references before the epoch began, where
  ``rank`` is their LRU recency rank (0 = most recent), so carryover
  residency decays exactly like in-epoch reuse.
* At the epoch boundary the resident set is rebuilt: blocks not
  touched keep their relative order, touched blocks re-enter in
  last-touch order, and the result is truncated to capacity.

Because L0 and L1 are filled and aged by the same reference stream,
their resident sets are nested (L0 is the most-recent ``c0`` entries of
the L1 ordering), so a single recency ordering models both levels.

**Import constraints**: this file must stay importable without numpy
and without the rest of the ``repro`` package — the no-numpy CI job
loads it standalone to prove the fallback path works (see
``ci/check_nonumpy.py``).
"""

from __future__ import annotations

try:  # optional fast path; the pure-Python path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None

__all__ = ["HAVE_NUMPY", "PrivateState", "fold_private", "self_check"]


class PrivateState:
    """Recency state of one thread's private L0+L1 stack.

    ``resident`` holds the resident blocks, least-recently used first:
    an int64 array when numpy is importable, else a list.  The most
    recent ``c0`` entries are considered L0 resident, the most recent
    ``c1`` entries L1 resident (the order is truncated to ``c1``).
    """

    __slots__ = ("c0", "c1", "resident")

    def __init__(self, c0: int, c1: int):
        if c0 <= 0 or c1 <= 0:
            raise ValueError("private cache capacities must be positive")
        self.c0 = min(c0, c1)
        self.c1 = c1
        self.resident = _resident([])

    def resident_blocks(self):
        return list(self.resident) if _np is None else self.resident.tolist()


def _resident(order):
    """The stored form of a resident ordering (see PrivateState)."""
    return order if _np is None else _np.asarray(order, dtype=_np.int64)


def _fold_py(state: PrivateState, blocks):
    n = len(blocks)
    order = state.resident_blocks()
    m = len(order)
    ranks = {block: m - 1 - pos for pos, block in enumerate(order)}
    distinct = len(set(blocks))
    g0 = state.c0 * n / distinct
    g1 = state.c1 * n / distinct
    last = {}
    levels = []
    append = levels.append
    get_last = last.get
    get_rank = ranks.get
    for i, block in enumerate(blocks):
        j = get_last(block)
        if j is None:
            r = get_rank(block)
            gap = (i + r + 1) if r is not None else None
        else:
            gap = i - j
        if gap is not None and gap <= g0:
            append(0)
        elif gap is not None and gap <= g1:
            append(1)
        else:
            append(2)
        last[block] = i
    # the boundary rebuild (see module doc): untouched survivors, then
    # touched blocks in last-touch order, cut to capacity
    survivors = [b for b in order if b not in last]
    touched = sorted(last, key=last.__getitem__)
    state.resident = _resident((survivors + touched)[-state.c1:])
    return levels


def _fold_np(state: PrivateState, blocks):
    arr = _np.asarray(blocks, dtype=_np.int64)
    n = arr.shape[0]

    idx = _np.arange(n, dtype=_np.int64)
    # by block, then stream position: one sort of unique keys
    keys = _np.sort(arr * n + idx)
    sort_order, sorted_blocks = keys % n, keys // n
    same = sorted_blocks[1:] == sorted_blocks[:-1]
    prev = _np.full(n, -1, dtype=_np.int64)
    prev[sort_order[1:][same]] = sort_order[:-1][same]

    # always-miss sentinel: thresholds peak at c1*n (one distinct block)
    gap = _np.where(prev >= 0, idx - prev, state.c1 * n + 1)
    # each distinct block's run in sorted order: its first and last
    # occurrence in the stream
    starts = _np.flatnonzero(_np.concatenate(([True], ~same)))
    ends = _np.append(starts[1:] - 1, n - 1)
    distinct = int(starts.shape[0])

    # a carried-over resident's first touch sits rank + 1 references
    # back, rank its recency rank (0 = MRU)
    resident = state.resident
    m = resident.shape[0]
    uniq = sorted_blocks[starts]
    at = _np.minimum(_np.searchsorted(uniq, resident), distinct - 1)
    touched = uniq[at] == resident
    first = sort_order[starts[at[touched]]]
    gap[first] = first + (m - _np.flatnonzero(touched))

    g0 = state.c0 * n / distinct
    g1 = state.c1 * n / distinct
    levels = _np.where(gap <= g0, 0, _np.where(gap <= g1, 1, 2)).astype(
        _np.int64
    )

    # the boundary rebuild (see module doc): untouched survivors, then
    # touched blocks in last-touch order, cut to capacity
    last = arr[_np.sort(sort_order[ends])]
    state.resident = _np.concatenate((resident[~touched], last))[-state.c1:]
    return levels


def fold_private(state: PrivateState, blocks, use_numpy=None):
    """Classify one epoch of references against the private stack.

    Returns per-reference levels — ``0`` (L0 hit), ``1`` (L1 hit), or
    ``2`` (missed the private stack, proceeds to the L2 layer) — as a
    numpy array on the vectorized path or a plain list on the fallback
    path.  Both paths compute the *same* model and return identical
    values; ``use_numpy=None`` picks the fast path when numpy is
    available.
    """
    if len(blocks) == 0:
        return _np.zeros(0, dtype=_np.int64) if (HAVE_NUMPY and use_numpy is not False) else []
    if use_numpy is None:
        use_numpy = HAVE_NUMPY
    if use_numpy:
        if not HAVE_NUMPY:
            raise RuntimeError("numpy requested but not importable")
        return _fold_np(state, blocks)
    if HAVE_NUMPY and isinstance(blocks, _np.ndarray):
        blocks = blocks.tolist()
    return _fold_py(state, blocks)


def self_check():
    """Deterministic smoke test of the fallback path (no-numpy CI).

    Exercises in-epoch reuse, carryover residency, and eviction by
    truncation; raises ``AssertionError`` on any mismatch.
    """
    state = PrivateState(c0=2, c1=4)
    # epoch 1: all cold; immediate reuse of 7 hits L0
    levels = fold_private(state, [7, 7, 8, 9, 7, 10], use_numpy=False)
    assert levels == [2, 0, 2, 2, 0, 2], levels
    assert state.resident_blocks() == [8, 9, 7, 10], state.resident_blocks()
    # epoch 2: 10 was MRU (rank 0) -> L0 carryover hit at i=0;
    # 8 at rank 3 -> gap 4+... exceeds both thresholds
    levels = fold_private(state, [10, 8, 11, 12], use_numpy=False)
    assert levels[0] == 0, levels
    assert len(state.resident_blocks()) == 4
    # a first touch always misses, even when so few distinct blocks
    # push the L1 threshold past the epoch length
    levels = fold_private(PrivateState(2, 64), [1, 2, 3, 4, 5] * 200)
    assert list(levels[:6]) == [2, 2, 2, 2, 2, 0], levels[:6]
    if HAVE_NUMPY:
        for c1, stream in ((4, [5, 6, 5, 7, 8, 9, 5, 6, 10, 10, 11, 6]),
                           (64, [1, 2, 3, 4, 5] * 40)):
            a, b = PrivateState(2, c1), PrivateState(2, c1)
            half = len(stream) // 2
            for epoch in (stream[:half], stream[half:]):
                va = fold_private(a, epoch, use_numpy=False)
                vb = fold_private(b, epoch, use_numpy=True)
                assert va == vb.tolist(), (va, vb)
                assert a.resident_blocks() == b.resident_blocks()
    return True


if __name__ == "__main__":  # pragma: no cover - CI entry point
    self_check()
    print("batchfold self-check OK (numpy=%s)" % HAVE_NUMPY)
