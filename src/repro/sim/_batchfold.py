"""Epoch-granular reference folding primitives for the batched kernel.

This module holds the *stream-classification* core of
:mod:`repro.sim.batched`: given one epoch of a thread's memory
references, decide which land in the private L0/L1 and which proceed to
the shared L2 layer — without dispatching per-reference through cache
objects.

The model is deliberately epoch-granular, so one vectorized pass over
the epoch computes it:

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
"""

from __future__ import annotations

import numpy as _np

__all__ = ["PrivateState", "fold_private"]


class PrivateState:
    """Recency state of one thread's private L0+L1 stack.

    ``resident`` holds the resident blocks as an int64 array,
    least-recently used first.  The most recent ``c0`` entries are
    considered L0 resident, the most recent ``c1`` entries L1 resident
    (the order is truncated to ``c1``).
    """

    __slots__ = ("c0", "c1", "resident")

    def __init__(self, c0: int, c1: int):
        if c0 <= 0 or c1 <= 0:
            raise ValueError("private cache capacities must be positive")
        self.c0 = min(c0, c1)
        self.c1 = c1
        self.resident = _np.zeros(0, dtype=_np.int64)


def fold_private(state: PrivateState, blocks):
    """Classify one epoch of references against the private stack.

    Returns per-reference levels as an int64 array: ``0`` (L0 hit),
    ``1`` (L1 hit), or ``2`` (missed the private stack, proceeds to the
    L2 layer).  Rebuilds ``state.resident`` for the next epoch.
    """
    arr = _np.asarray(blocks, dtype=_np.int64)
    n = arr.shape[0]
    if n == 0:
        return _np.zeros(0, dtype=_np.int64)

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

