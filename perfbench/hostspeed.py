"""Host-speed calibration for timings taken on a shared machine.

On a host whose cores are shared with other tenants the same Python
work can run 30-50% slower for tens of seconds at a time, which would
drown any change to the simulator in run-to-run noise.  The benchmark
therefore interleaves its timed operations with a fixed,
self-contained calibration loop that never calls into ``repro`` and
reports each operation's wall time scaled by
``REFERENCE_S / calibration time``: seconds on a host that runs the
calibration loop in ``REFERENCE_S``.  A change to the repository
cannot change the loop, so it moves a scaled time exactly as much as
the raw one; only the host's drift cancels.

The loop mixes the three kinds of work the simulator does (integer
and dict work in the interpreter, method calls on small objects,
numpy sorts over arrays larger than the L1 cache), because host
slow-downs hit them unequally.  Calibration runs only at checkpoints
where the benchmark is otherwise idle, so it measures the host and
not contention inside the benchmark.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

import numpy as np

__all__ = ["HostSpeed", "REFERENCE_S"]

REFERENCE_S = 0.015
"""Calibration-loop time of the reference host the timings are scaled to."""

INTERVAL_S = 0.3
"""Shortest time between two calibrations."""

_ARRAY = np.random.default_rng(0).integers(0, 1 << 20, 4096)


class _Counter:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value & 7
        return self.total


def _loop() -> int:
    total = 0
    table = {}
    for i in range(30_000):
        total += i * i
        table[i & 1023] = total
    counters = [_Counter() for _ in range(64)]
    for i in range(12_000):
        total += counters[i & 63].add(i)
        table[i % 509] = i
    for _ in range(30):
        ordered = np.sort(_ARRAY)
        total += int(np.unique(ordered & 1023).sum()) + len(ordered.tolist())
    return total


class HostSpeed:
    """Scaled timings of one run, grouped by key.

    Record raw timings with :meth:`record` and call :meth:`checkpoint`
    whenever the benchmark is idle; the timings recorded since the
    previous calibration are scaled by the mean of the calibrations
    on either side of them.  :meth:`checkpoint` with ``force`` (at the
    end of a run) scales whatever is still pending.
    """

    def __init__(self):
        self.scaled = defaultdict(list)
        self.spent = 0.0  # seconds spent calibrating
        self._pending = []
        self._before = self._measure()
        self._at = time.perf_counter()

    def _measure(self) -> float:
        # a collector pass over the caller's heap would be timed as host
        # slowness, so the loop runs with the collector off
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _loop()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.spent += elapsed
        return elapsed

    def record(self, key, seconds: float) -> None:
        self._pending.append((key, seconds))

    def checkpoint(self, force: bool = False) -> None:
        if not self._pending or (
                not force and time.perf_counter() - self._at < INTERVAL_S):
            return
        after = self._measure()
        factor = REFERENCE_S / (0.5 * (self._before + after))
        for key, seconds in self._pending:
            self.scaled[key].append(seconds * factor)
        self._pending.clear()
        self._before = after
        self._at = time.perf_counter()
