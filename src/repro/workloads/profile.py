"""Statistical workload profiles.

A :class:`WorkloadProfile` captures everything the paper's Tables I and
II tell us about a workload's memory behaviour, expressed as parameters
of a synthetic reference-stream model with three data pools:

``shared-read``
    Read-mostly data touched by all threads (code, DB pages, the Java
    heap's shared structures).  Threads *scan* this pool in a pipelined
    fashion: every thread walks the same circular region, each trailing
    the previous thread by ``scan_lag`` blocks.  A follower therefore
    frequently misses on blocks its predecessor fetched recently —
    which the coherence protocol turns into **clean** cache-to-cache
    transfers, the dominant transfer type for SPECjbb and SPECweb
    (Table II: 94% / 93% clean).

``migratory``
    A small, hot pool accessed read-modify-write under contention (lock
    words, shared queue heads, join/merge buffers).  Hot blocks bounce
    between writers in different caches, producing **dirty**
    cache-to-cache transfers — TPC-H's signature (57% of its transfers
    are dirty).

``private``
    Per-thread data (transaction-local state).  Misses here are served
    by memory; a workload dominated by a large private pool (TPC-W,
    1,125K blocks touched but only 15% of misses served on-chip)
    stresses capacity rather than coherence.

The pool *capacity* split (``frac_*``), the pool *access* mix
(``p_*``), write probabilities, and locality knobs are calibrated per
workload in :mod:`repro.workloads.library` so that simulating the
paper's private-cache configuration reproduces Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..errors import WorkloadError

__all__ = ["WorkloadProfile"]


@dataclass(frozen=True)
class WorkloadProfile:
    """Parametric model of one commercial workload.

    See the module docstring for the meaning of the three pools.

    Attributes
    ----------
    name:
        Short identifier, e.g. ``"tpcw"``.
    description, setup, execution:
        Table I's prose columns (for reports).
    footprint_blocks:
        Total distinct 64-byte blocks touched (Table II's rightmost
        column).
    threads:
        Threads per instance; the paper uses four everywhere.
    frac_shared_read, frac_migratory:
        Fraction of the footprint in each shared pool; the remainder is
        split evenly into per-thread private pools.
    p_hot, hot_blocks_per_thread:
        An ultra-hot per-thread working set (registers spilled to
        stack, hot locals, TLB-resident metadata): ``p_hot`` of all
        references hit the first ``hot_blocks_per_thread`` blocks of
        the thread's private pool, uniformly.  This is what gives the
        private L0/L1 realistic hit rates; it is invisible beyond L1
        after warm-up.
    p_shared_read, p_migratory:
        Probability that a reference targets each shared pool; the
        remainder (beyond ``p_hot``) targets the thread's cold private
        pool.
    write_prob_shared, write_prob_migratory, write_prob_private:
        Per-pool write probability.
    scan_window:
        Width in blocks of the sliding window a thread samples within
        the shared-read pool.
    scan_lag:
        How far (blocks) each thread trails the previous one in the
        shared-read scan.
    scan_slide:
        Blocks the window advances per reference issued by the thread.
    skew_migratory, skew_private:
        Power-law locality exponents of the two pools (see
        :class:`repro.workloads.sampling.PowerLawSampler`).
    think_mean:
        Mean non-memory instructions between references (geometric).
    """

    name: str
    description: str = ""
    setup: str = ""
    execution: str = ""
    footprint_blocks: int = 100_000
    threads: int = 4
    frac_shared_read: float = 0.4
    frac_migratory: float = 0.02
    p_hot: float = 0.45
    hot_blocks_per_thread: int = 48
    p_shared_read: float = 0.35
    p_migratory: float = 0.05
    write_prob_shared: float = 0.01
    write_prob_migratory: float = 0.5
    write_prob_private: float = 0.15
    scan_window: int = 4000
    scan_lag: int = 1000
    scan_slide: float = 0.05
    skew_migratory: float = 2.5
    skew_private: float = 2.5
    think_mean: float = 2.0

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("profile needs a name")
        if self.footprint_blocks <= 0:
            raise WorkloadError("footprint_blocks must be positive")
        if self.threads <= 0:
            raise WorkloadError("threads must be positive")
        for attr in ("frac_shared_read", "frac_migratory"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{attr} must be in [0, 1], got {value}")
        if self.frac_shared_read + self.frac_migratory > 1.0:
            raise WorkloadError(
                "shared + migratory capacity fractions exceed 1.0 "
                f"({self.frac_shared_read} + {self.frac_migratory})"
            )
        for attr in ("p_shared_read", "p_migratory", "p_hot"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{attr} must be in [0, 1], got {value}")
        if self.p_hot + self.p_shared_read + self.p_migratory > 1.0:
            raise WorkloadError(
                "hot + shared + migratory access probabilities exceed 1.0"
            )
        if self.hot_blocks_per_thread < 0:
            raise WorkloadError("hot_blocks_per_thread must be non-negative")
        if self.hot_blocks_per_thread >= self.private_blocks_per_thread:
            raise WorkloadError(
                "hot_blocks_per_thread must be smaller than the private "
                "pool per thread"
            )
        for attr in (
            "write_prob_shared",
            "write_prob_migratory",
            "write_prob_private",
        ):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{attr} must be in [0, 1], got {value}")
        if self.scan_window <= 0:
            raise WorkloadError("scan_window must be positive")
        if self.scan_window > self.shared_read_blocks and self.shared_read_blocks:
            raise WorkloadError(
                f"scan_window ({self.scan_window}) exceeds the shared-read "
                f"pool ({self.shared_read_blocks} blocks)"
            )
        if self.scan_lag < 0:
            raise WorkloadError("scan_lag must be non-negative")
        if self.scan_slide < 0:
            raise WorkloadError("scan_slide must be non-negative")
        if self.think_mean < 0:
            raise WorkloadError("think_mean must be non-negative")

    # ------------------------------------------------------------------
    # derived pool layout (block offsets within a VM's partition)
    # ------------------------------------------------------------------

    @property
    def shared_read_blocks(self) -> int:
        return int(self.footprint_blocks * self.frac_shared_read)

    @property
    def migratory_blocks(self) -> int:
        return max(1, int(self.footprint_blocks * self.frac_migratory))

    @property
    def private_blocks_per_thread(self) -> int:
        remaining = (
            self.footprint_blocks - self.shared_read_blocks - self.migratory_blocks
        )
        return max(1, remaining // self.threads)

    @property
    def p_private(self) -> float:
        """Probability of a (cold) private-pool access."""
        return 1.0 - self.p_hot - self.p_shared_read - self.p_migratory

    @property
    def partition_blocks(self) -> int:
        """Blocks of physical memory one instance needs."""
        return (
            self.shared_read_blocks
            + self.migratory_blocks
            + self.private_blocks_per_thread * self.threads
        )

    def pool_offsets(self) -> Dict[str, int]:
        """Start offset of each pool inside the VM partition."""
        return {
            "shared_read": 0,
            "migratory": self.shared_read_blocks,
            "private": self.shared_read_blocks + self.migratory_blocks,
        }

    def with_overrides(self, **kwargs) -> "WorkloadProfile":
        """A copy with some parameters replaced (for calibration)."""
        return replace(self, **kwargs)

    def scaled(self, factor: float) -> "WorkloadProfile":
        """A copy with the footprint (and scan geometry) scaled.

        Scaled simulation shrinks cache capacities and workload
        footprints by the same factor, preserving the footprint-to-
        capacity ratios that drive the paper's results.  ``factor=1``
        returns ``self``.
        """
        if factor <= 0:
            raise WorkloadError(f"scale factor must be positive, got {factor}")
        if factor == 1.0:
            return self
        footprint = max(self.threads * 4, int(self.footprint_blocks * factor))
        # grow a tiny footprint until each thread keeps a private block,
        # so the pools still fit inside it (never past the unscaled size)
        while (footprint < self.footprint_blocks
               and footprint - int(footprint * self.frac_shared_read)
               - max(1, int(footprint * self.frac_migratory))
               < self.threads):
            footprint += 1
        window = max(16, int(self.scan_window * factor))
        shared = int(footprint * self.frac_shared_read)
        if shared:
            window = min(window, shared)
        lag = max(1, int(self.scan_lag * factor))
        # the hot pool must stay inside the (now smaller) private pool
        migratory = max(1, int(footprint * self.frac_migratory))
        private_per_thread = max(1, (footprint - shared - migratory)
                                 // self.threads)
        hot = min(self.hot_blocks_per_thread,
                  max(0, private_per_thread - 1))
        return replace(
            self,
            footprint_blocks=footprint,
            scan_window=window,
            scan_lag=lag,
            hot_blocks_per_thread=hot,
        )
