"""Batched (epoch-folded) execution kernel.

:class:`BatchedEngine` is the fast, approximate counterpart to the
byte-exact reference :class:`~repro.sim.engine.Engine`.  Instead of
stepping one reference at a time through cache/coherence/mesh objects,
it advances every thread one *epoch* (``epoch_refs`` references) at a
time:

1. each thread's address stream for the epoch is pulled as three
   int64 columns (slices of the trace buffer — see
   :meth:`repro.workloads.generator.ThreadTrace.take_batch`), which
   stay arrays through the whole epoch;
2. references are classified against a stack-distance model of the
   private L0/L1 (:mod:`repro.sim._batchfold`) — the vectorized hot
   path, since it sees every reference;
3. the surviving L2-level references of each L2 domain are merged by
   estimated issue time (one sort) and replayed against array L2
   state in lock-step rounds (see :meth:`BatchedEngine._replay`),
   classifying local hits, cross-domain cache-to-cache transfers, and
   memory fetches; each domain's peer-L1 eviction window is settled
   in bulk as a FIFO with deletions (:meth:`BatchedEngine._peer_pass`)
   and the directory caches as one last-access stamp per block
   (:meth:`BatchedEngine._dir_access`); only the tap walks the merged
   events one by one;
4. coherence effects of writes (upgrades, invalidations) and queueing
   delays on shared resources (L2 banks, memory channels, mesh links —
   an M/D/1 waiting-time estimate fed by the previous epoch's arrival
   rates) are reconciled once per epoch boundary.

The result is an :class:`~repro.sim.engine.EngineResult` shaped exactly
like the reference engine's, with per-thread :class:`ThreadStats` and
per-VM completion times, at a fraction of the cost.  Fidelity is
*statistical*, not bit-exact: ``tests/sim/test_equivalence.py`` bounds
the divergence from the reference engine, and ``docs/engines.md``
states the tolerance contract.

Known modelling simplifications (all reconciled at epoch granularity):

* intra-domain peer-L1 transfers (``HitLevel.L2_PEER``) are detected
  against sibling threads' epoch-boundary private resident sets rather
  than their instantaneous L1 contents;
* per-tile directory caches are modelled as fully-associative LRU
  caches of the configured entry count (the reference uses 8-way
  set-associative), kept as each block's last-access stamp and settled
  in bulk while a tile's residents fit; a dir-cache miss charges the
  same memory-latency penalty as the reference path;
* coherence between domains is resolved against epoch-*start* state;
  two domains touching the same block inside one epoch only see each
  other at the next boundary;
* write upgrades are charged to the first writing thread of the epoch.

QoS integration: the engine honours live
:class:`~repro.caches.partitioning.WayQuota` objects installed on the
chip's domains (reading them every epoch, so epoch-boundary quota
rewrites by a :class:`~repro.qos.hook.QosHook` actuate the very next
epoch) and feeds the chip's L2 tap when one is installed (UCP
utility monitors work unchanged).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import Dict, List

import numpy as _np

from ..control import EPOCH_PROBE, QUOTA
from ..errors import SimulationError
from ._batchfold import PrivateState, fold_private
from .engine import EngineResult
from .records import HitLevel

__all__ = ["BatchedEngine", "DEFAULT_EPOCH_REFS"]

DEFAULT_EPOCH_REFS = 1024
"""Default references per thread per folding epoch."""

_LEVELS = len(HitLevel)
_L2, _L2_PEER, _C2C_CLEAN, _C2C_DIRTY, _MEMORY = range(HitLevel.L2, _LEVELS)
_MISS_LEVELS = range(_L2, _LEVELS)  # the levels of an L1 miss
_NEVER = _np.iinfo(_np.int64).max  # no quota / no candidate way


def _level_counts(lv) -> List[int]:
    return _np.bincount(lv, minlength=_LEVELS).tolist()


class BatchedEngine:
    """Epoch-folded engine over a :class:`~repro.machine.chip.Chip`.

    Parameters
    ----------
    machine:
        A chip exposing ``config``, ``placement``, ``topology``,
        ``mesh``, ``domains`` and (optionally) ``l2_tap`` /
        ``vm_of_core``.  Unlike the reference engine the batched kernel
        needs the chip's *structure* (geometry, placement, zero-load
        latencies), not its per-reference ``access`` method.
    threads:
        Thread contexts, at most one per core.
    probe:
        Optional :class:`~repro.obs.probes.EpochProbe`; driven once per
        folding epoch with the global clock.  Point it at this engine
        (it exposes ``queue_depths`` / ``l2_occupancy_share``).
    control:
        Optional :class:`~repro.qos.hook.QosHook`; driven once per
        folding epoch, so QoS control epochs are quantized to folding
        epochs.
    epoch_refs:
        References per thread per folding epoch.
    """

    #: capabilities (:mod:`repro.control`): pre-folded batches admit
    #: quota rewrites only
    provides = frozenset({QUOTA, EPOCH_PROBE})

    #: window deletions per table in :meth:`_trim_frontier` (the table
    #: holds the square of this many entries)
    _TRIM_CHUNK = 256

    def __init__(
        self,
        machine,
        threads,
        probe=None,
        control=None,
        epoch_refs: int = DEFAULT_EPOCH_REFS,
    ):
        if not threads:
            raise SimulationError("engine needs at least one thread")
        cores_seen = set()
        for thread in threads:
            if thread.core_id in cores_seen:
                raise SimulationError(
                    f"core {thread.core_id} bound to more than one thread; "
                    "the consolidation methodology never over-commits cores"
                )
            cores_seen.add(thread.core_id)
        if epoch_refs <= 0:
            raise SimulationError("epoch_refs must be positive")
        self.machine = machine
        self.threads = {t.thread_id: t for t in threads}
        self.probe = probe
        self.control = control
        self.epoch_refs = epoch_refs

        config = machine.config
        geometry = config.l2_geometry()
        self._num_sets = geometry.num_sets
        self._set_mask = geometry.num_sets - 1
        self._assoc = geometry.assoc
        self._c0 = max(1, config.l0_geometry.num_lines)
        self._c1 = max(self._c0 + 1, config.l1_geometry.num_lines)
        placement = machine.placement
        self._domain_of_core = list(placement.domain_of)
        self._num_domains = len(placement.domains)
        cores_per_domain = max(len(d) for d in placement.domains)
        # L2 state, one row per (domain, set): a line's stamp is
        # _tick * assoc + way, so a row's min stamp names its LRU way;
        # an empty way has stamp way - assoc and tag -1 (blocks are
        # non-negative)
        shape = (self._num_domains * self._num_sets, self._assoc)
        self._tag = _np.full(shape, -1, dtype=_np.int64)
        self._stamp = _np.tile(_np.arange(-self._assoc, 0), (shape[0], 1))
        self._dirty = _np.zeros(shape, dtype=bool)
        self._vm = _np.full(shape, -1, dtype=_np.int64)  # owner's vm code
        self._tick = 0
        self._vm_ids = sorted({t.vm_id for t in threads})
        self._vm_code = {vm: code for code, vm in enumerate(self._vm_ids)}
        # per domain: blocks recently evicted from its L2, oldest first —
        # the window in which a peer L1 may still hold a line the L2
        # dropped
        self._recent = [_np.zeros(0, dtype=_np.int64)] * self._num_domains
        self._evict_cap = cores_per_domain * self._c1
        self._private = {
            t.thread_id: PrivateState(self._c0, self._c1) for t in threads
        }
        # domain -> [(thread_id, private state)] for peer-L1 probes
        self._domain_threads: Dict[int, List] = {}
        for t in threads:
            self._domain_threads.setdefault(
                self._domain_of_core[t.core_id], []
            ).append((t.thread_id, self._private[t.thread_id]))
        self._order = sorted(self.threads)
        # cycles-per-reference estimate from the previous epoch; drives
        # the time-weighted event merge in :meth:`_fold_l2` (all threads
        # start equal, so epoch 0 degenerates to index order)
        self._rates: Dict[int, float] = {tid: 1.0 for tid in self.threads}

        # directory caches: one LRU per tile, striped like the reference
        # Directory (home tile = block % num_tiles), held as each block's
        # last-access stamp (0: not cached) in a dense array sized from
        # the VM partitions (grown if a block lies past them)
        self._dir_tiles = config.num_cores
        self._dir_capacity = max(1, config.directory_cache_entries)
        self._dir_stamp = _np.zeros(max(
            getattr(t.references, "partition_end", 0) for t in threads),
            dtype=_np.int64)
        self._dir_count = _np.zeros(self._dir_tiles, dtype=_np.int64)
        self._dir_clock = 0
        self.dir_hits = 0
        self.dir_misses = 0

        # chip-level counters mirrored into the experiment's ChipSummary
        self.c2c_clean = 0
        self.c2c_dirty = 0
        self.intra_domain_transfers = 0
        self.memory_fetches = 0
        self.writebacks = 0
        self.invalidations = 0
        self.upgrades = 0
        self.net_messages = 0
        self.net_cycles = 0.0
        self.net_hops = 0

        self._build_latency_tables()
        # previous-epoch arrival state feeding the queueing estimates
        self._prev_now = 0.0
        self._w_l2 = [0.0] * self._num_domains
        self._w_mem = 0.0
        self._rho_link = 0.0

    # ------------------------------------------------------------------
    # static latency precomputation
    # ------------------------------------------------------------------

    def _build_latency_tables(self) -> None:
        """Per-core zero-load latency/hop constants for each hit level.

        Mirrors the reference chip's message legs (see
        :meth:`repro.machine.chip.Chip.access`), with block-dependent
        tiles (directory home, memory controller, providing domain)
        replaced by their uniform-striping expectations.
        """
        machine = self.machine
        config = machine.config
        mesh = machine.mesh
        placement = machine.placement
        topo = machine.topology
        ctrl = config.control_flits
        data = config.data_flits
        tiles = config.num_cores
        mem_tiles = list(config.memory_tiles)
        # one hop matrix (Manhattan distance between tile coordinates)
        # gives every leg: a message to its own tile costs nothing, any
        # other hops * hop_cycles + flits - 1 (the mesh's zero-load
        # latency)
        xy = _np.array([topo.coords(t) for t in range(tiles)])
        hops = _np.abs(xy[:, None] - xy[None]).sum(2)
        zl = {flits: _np.where(hops > 0, hops * mesh.hop_cycles + flits - 1, 0)
              for flits in {ctrl, data}}
        homes = list(placement.home_tile)
        # other[d, t]: how often tile t is another domain's home, seen
        # from domain d (a lone domain provides to itself)
        other = _np.tile(_np.bincount(homes, minlength=tiles),
                         (len(homes), 1))
        other[_np.arange(len(homes)), homes] -= len(homes) > 1
        providers = other.sum(1)
        cores = _np.arange(tiles)
        dom = _np.asarray(placement.domain_of)
        home = _np.asarray(homes)[dom]

        def legs(cost):
            """Each core's legs over one (source x destination) cost
            matrix; a mean is an integer sum over its pairs divided by
            the pair count, so each float is the exact quotient."""
            columns = {
                "c2h": cost[cores, home],            # core -> its home
                "h2c": cost[home, cores],            # home -> core
                "h2dir": cost[home].sum(1) / tiles,  # home -> directories
                "c2dir": cost.sum(1) / tiles,        # core -> directories
                "dir2c": cost.sum(0) / tiles,        # directories -> core
                "mem2c": cost[mem_tiles].sum(0) / len(mem_tiles),
                "dir2prov": (other @ cost.sum(0))[dom] / (tiles * providers[dom]),
                "prov2c": (other @ cost)[dom, cores] / providers[dom],
            }
            return [dict(zip(columns, row)) for row in
                    zip(*(col.tolist() for col in columns.values()))]

        # block-independent: directory home -> memory controller leg
        pairs = tiles * len(mem_tiles)
        dir2mem_lat = float(zl[ctrl][:, mem_tiles].sum() / pairs)
        dir2mem_hops = float(hops[:, mem_tiles].sum() / pairs)

        self._lat: Dict[int, List[float]] = {}
        self._ctrl_hops: Dict[int, List[float]] = {}
        self._data_hops: Dict[int, List[float]] = {}
        self._upgrade_cost: Dict[int, float] = {}
        self._upgrade_hops: Dict[int, float] = {}
        l0 = config.l0_geometry.latency
        l1 = config.l1_geometry.latency
        l2 = config.l2_latency
        for core, (c, d, h) in enumerate(zip(legs(zl[ctrl]), legs(zl[data]),
                                             legs(hops))):
            c2h, c2h_h = c["c2h"], h["c2h"]
            h2c_lat, h2c_h = d["h2c"], h["h2c"]
            h2dir_lat, h2dir_h = c["h2dir"], h["h2dir"]
            mem2c_lat, mem2c_h = d["mem2c"], h["mem2c"]
            dir2prov_lat, dir2prov_h = c["dir2prov"], h["dir2prov"]
            prov2c_lat, prov2c_h = d["prov2c"], h["prov2c"]
            c2dir_lat, c2dir_h = c["c2dir"], h["c2dir"]
            dir2c_lat, dir2c_h = c["dir2c"], h["dir2c"]

            lat = [0.0] * _LEVELS
            ctrl_hops = [0.0] * _LEVELS
            data_hops = [0.0] * _LEVELS
            lat[HitLevel.L0] = float(l0)
            lat[HitLevel.L1] = float(l0 + l1)
            # L2 hit: request to the home tile, bank access, data back
            lat[HitLevel.L2] = l0 + l1 + l2 + c2h + h2c_lat
            ctrl_hops[HitLevel.L2] = c2h_h
            data_hops[HitLevel.L2] = h2c_h
            # peer-L1 transfer: L2 lookup missed, probe a sibling L1,
            # forward the line through the home tile
            lat[HitLevel.L2_PEER] = lat[HitLevel.L2] + l1 + c2h
            ctrl_hops[HitLevel.L2_PEER] = 2 * c2h_h
            data_hops[HitLevel.L2_PEER] = h2c_h
            # C2C: local lookup missed, directory indirection, remote
            # domain lookup, data from the provider's home tile
            c2c = (
                l0 + l1 + 2 * l2 + config.directory_latency
                + c2h + h2dir_lat + dir2prov_lat + prov2c_lat
            )
            lat[HitLevel.C2C_CLEAN] = c2c
            lat[HitLevel.C2C_DIRTY] = c2c + l1
            ctrl_hops[HitLevel.C2C_CLEAN] = c2h_h + h2dir_h + dir2prov_h
            ctrl_hops[HitLevel.C2C_DIRTY] = ctrl_hops[HitLevel.C2C_CLEAN]
            data_hops[HitLevel.C2C_CLEAN] = prov2c_h
            data_hops[HitLevel.C2C_DIRTY] = prov2c_h
            # memory: directory indirection then the off-chip access
            lat[HitLevel.MEMORY] = (
                l0 + l1 + l2 + config.directory_latency
                + config.memory_latency
                + c2h + h2dir_lat + dir2mem_lat + mem2c_lat
            )
            ctrl_hops[HitLevel.MEMORY] = c2h_h + h2dir_h + dir2mem_hops
            data_hops[HitLevel.MEMORY] = mem2c_h
            self._lat[core] = lat
            self._ctrl_hops[core] = ctrl_hops
            self._data_hops[core] = data_hops
            # write upgrade: control round trip through the directory
            self._upgrade_cost[core] = (
                c2dir_lat + dir2c_lat + config.directory_latency
            )
            self._upgrade_hops[core] = c2dir_h + dir2c_h

        self._num_links = len(list(topo.links()))
        self._mem_service = float(
            max(
                config.memory_channel_occupancy,
                config.memory_bank_occupancy / max(1, config.memory_banks),
            )
        )
        self._mem_controllers = len(mem_tiles)
        self._l2_service = float(config.l2_service_time)
        self._ctrl_flits = float(ctrl)
        self._data_flits = float(data)
        self._hop_cycles = float(config.hop_cycles)

    # ------------------------------------------------------------------
    # per-epoch dynamic latencies
    # ------------------------------------------------------------------

    @staticmethod
    def _md1_wait(service: float, rho: float) -> float:
        """M/D/1 mean waiting time, utilization-capped for stability."""
        rho = min(rho, 0.95)
        return service * rho / (2.0 * (1.0 - rho))

    def _epoch_latencies(self, core: int) -> List[float]:
        """Latency table for this epoch: constants + current waits."""
        base = self._lat[core]
        w_link_c = self._md1_wait(self._ctrl_flits, self._rho_link)
        w_link_d = self._md1_wait(self._data_flits, self._rho_link)
        domain = self._domain_of_core[core]
        w_l2_local = self._w_l2[domain]
        w_l2_mean = sum(self._w_l2) / len(self._w_l2)
        ch = self._ctrl_hops[core]
        dh = self._data_hops[core]
        out = list(base)
        for level in _MISS_LEVELS:
            out[level] += ch[level] * w_link_c + dh[level] * w_link_d
            out[level] += w_l2_local
        # cross-domain transfers also queue at the provider's bank
        out[HitLevel.C2C_CLEAN] += w_l2_mean
        out[HitLevel.C2C_DIRTY] += w_l2_mean
        out[HitLevel.MEMORY] += self._w_mem
        return out

    # ------------------------------------------------------------------
    # batch acquisition
    # ------------------------------------------------------------------

    def _take_batch(self, thread):
        """One epoch of (blocks, writes, thinks) int64 columns."""
        refs = thread.references
        take = getattr(refs, "take_batch", None)
        if take is not None:
            return take(self.epoch_refs)
        rows = list(islice(refs, self.epoch_refs))
        if len(rows) < self.epoch_refs:
            raise SimulationError(
                f"thread {thread.thread_id} reference stream ended; "
                "workload generators must be infinite"
            )
        return [_np.asarray(col, dtype=_np.int64) for col in zip(*rows)]

    # ------------------------------------------------------------------
    # the epoch loop
    # ------------------------------------------------------------------

    def run(self) -> EngineResult:
        threads = [self.threads[tid] for tid in self._order]
        clocks = {t.thread_id: float(t.start_time) for t in threads}
        vm_pending: Dict[int, int] = {}
        for t in threads:
            vm_pending[t.vm_id] = vm_pending.get(t.vm_id, 0) + 1
        vm_completion: Dict[int, int] = {}
        remaining = {
            t.thread_id: t.warmup_refs + t.measured_refs for t in threads
        }
        total_refs = 0
        max_epochs = 32 * max(
            1,
            sum(remaining.values()) // (self.epoch_refs * max(1, len(threads))),
        ) + 64
        epochs = 0

        while any(t.issued < t.warmup_refs + t.measured_refs for t in threads):
            epochs += 1
            if epochs > max_epochs:
                raise SimulationError(
                    f"batched engine exceeded {max_epochs} epochs without "
                    "all VMs completing"
                )
            batches = {}
            levels = {}
            for t in threads:
                blocks, writes, thinks = self._take_batch(t)
                batches[t.thread_id] = (blocks, writes, thinks)
                levels[t.thread_id] = fold_private(
                    self._private[t.thread_id], blocks
                )
                total_refs += len(blocks)

            prev_clocks = dict(clocks)
            dir_penalties = self._fold_l2(threads, batches, levels, clocks)
            upgrades_by_thread = self._reconcile_writes(
                threads, batches, clocks
            )
            arrivals = self._account_epoch(
                threads, batches, levels, upgrades_by_thread, dir_penalties,
                clocks, vm_pending, vm_completion,
            )
            for t in threads:
                n = len(batches[t.thread_id][0])
                if n:
                    self._rates[t.thread_id] = (
                        clocks[t.thread_id] - prev_clocks[t.thread_id]
                    ) / n

            # epoch-boundary "now": per-thread progress clamped at the
            # thread's completion instant.  Clocks overshoot past the
            # measured window (epochs are fixed-size), so the raw max
            # clock can exceed the run's final_time; the clamped value
            # is nondecreasing and converges exactly to final_time,
            # keeping probe/control samples monotone.
            now = max(
                t.completion_time
                if t.issued >= t.warmup_refs + t.measured_refs
                else clocks[t.thread_id]
                for t in threads
            )
            self._update_queue_estimates(now, arrivals)
            now_int = int(now)
            if self.probe is not None:
                self.probe.on_step(now_int)
            if self.control is not None:
                self.control.on_step(now_int)

        final_time = max(vm_completion.values())
        if self.probe is not None:
            self.probe.finish(final_time)
        if self.control is not None:
            self.control.finish(final_time)
        result = EngineResult(
            final_time=final_time,
            vm_completion_times=vm_completion,
            thread_stats={t.thread_id: t.stats for t in threads},
            total_refs_processed=total_refs,
        )
        result._vm_of = {t.thread_id: t.vm_id for t in threads}
        return result

    # ------------------------------------------------------------------
    # L2 folding
    # ------------------------------------------------------------------

    def _fold_l2(self, threads, batches, levels,
                 clocks) -> Dict[int, List[int]]:
        """Classify every private-stack miss through the L2 layer.

        Rewrites the per-thread ``levels`` entries in place from the
        provisional value ``2`` to the final :class:`HitLevel`.
        Returns per-thread sorted lists of reference indices that
        suffered a directory-cache miss (each costs an extra
        memory-latency penalty, like the reference path).

        Events within a domain are merged by *estimated issue time*
        ``clock[tid] + (i + 1) * rate[tid]`` (ties broken by index,
        then thread), not by reference index.
        The distinction matters for pipelined-scan workloads: the
        thread leading the scan pays compulsory misses, slows down in
        wall-clock, and in the reference engine the trailing threads
        then overtake the scan front and share the miss load.  An
        index-ordered merge pins every compulsory miss on the static
        leader forever; the time-weighted merge reproduces the
        reference's load-balancing feedback at epoch granularity.

        The merge (domains ascending) is a sequential fold's order: the
        tap walks the events in that order, the sets replay in
        lock-step, and the recent-eviction windows and the directory
        caches are settled in bulk to what that walk would leave.
        """
        tap = getattr(self.machine, "l2_tap", None)
        vm_code = self._vm_code
        # (domain, est, index, thread, vm code, block, write) columns,
        # one part per thread with L2 events
        parts, spans = [], []
        for t in threads:
            tid = t.thread_id
            idx = _np.flatnonzero(levels[tid] == 2)
            if idx.size:
                blocks, writes, _thinks = batches[tid]
                parts.append((
                    _np.full(idx.size, self._domain_of_core[t.core_id]),
                    clocks[tid] + (idx + 1) * self._rates[tid], idx,
                    _np.full(idx.size, tid), _np.full(idx.size, vm_code[t.vm_id]),
                    blocks[idx], writes[idx]))
                spans.append((tid, idx))
        if not parts:
            return {}
        doms, est, idx, tids, vms, blocks, writes = (
            _np.concatenate(col) for col in zip(*parts))
        order = self._merge_order(doms, est, idx, tids)
        doms, tids, vms, blocks, writes = (
            col[order] for col in (doms, tids, vms, blocks, writes))
        if tap is not None:
            vm_ids = self._vm_ids
            for domain_id, vm, block in zip(doms.tolist(), vms.tolist(),
                                            blocks.tolist()):
                tap(domain_id, vm_ids[vm], block)

        sets = blocks & self._set_mask
        start = (self._tag.copy(), self._dirty.copy())
        hit, victims = self._replay(doms * self._num_sets + sets, blocks,
                                    writes.astype(bool), vms)
        miss = _np.flatnonzero(~hit)
        out = _np.full(hit.size, _L2)
        out[miss] = self._c2c_levels(doms[miss], sets[miss], blocks[miss],
                                     *start)
        bounds = _np.cumsum(_np.bincount(doms[miss], minlength=self._num_domains))
        for domain_id, (lo, hi) in enumerate(zip([0] + bounds.tolist(), bounds.tolist())):
            mine = miss[lo:hi]
            # a lone thread has no sibling L1 to supply its misses
            if hi > lo and len(self._domain_threads.get(domain_id, ())) > 1:
                out[mine[self._peer_pass(domain_id, blocks[mine], tids[mine],
                                         victims[mine])]] = _L2_PEER
        rest = miss[out[miss] != _L2_PEER]
        penalised = _np.zeros(hit.size, dtype=bool)
        penalised[self._dir_access(blocks[rest], rest)] = True

        counts = _level_counts(out)
        self.intra_domain_transfers += counts[_L2_PEER]
        self.c2c_clean += counts[_C2C_CLEAN]
        self.c2c_dirty += counts[_C2C_DIRTY]
        self.memory_fetches += counts[_MEMORY]
        # back to thread order, where each thread's events are one span
        out[order], penalised[order] = out.copy(), penalised.copy()
        dir_penalties: Dict[int, List[int]] = {}
        lo = 0
        for tid, idx in spans:
            hi = lo + idx.size
            levels[tid][idx] = out[lo:hi]
            if penalised[lo:hi].any():
                dir_penalties[tid] = idx[penalised[lo:hi]].tolist()
            lo = hi
        return dir_penalties

    def _merge_order(self, doms, est, idx, tids):
        """The merge: domains ascending, each by (est, index, thread),
        as one sort of unique integer keys (est by its dense rank)."""
        by_est = _np.argsort(est)
        rank = _np.empty(est.size, dtype=_np.int64)
        rank[by_est] = _np.cumsum(_np.concatenate(
            ([0], _np.diff(est[by_est]) != 0)))
        tid_rank = _np.searchsorted(self._order, tids)
        return _np.argsort(((doms * est.size + rank) * (int(idx.max()) + 1)
                            + idx) * len(self._order) + tid_rank)

    def _replay(self, rows, blocks, writes, vms):
        """Replay merged L2 events against the set arrays in lock-step.

        Round r applies the r-th event of every touched (domain, set)
        row at once: exact, as a set's LRU state depends on its own
        events only.  A hit refreshes its stamp; a miss fills the
        min-stamp way (empty, else LRU, unless a WayQuota picks) —
        dirty on a write, as ownership is part of the fetch.  Returns
        each event's hit flag and evicted block (-1: none).
        """
        tag, stamp, dirty, owner = self._tag, self._stamp, self._dirty, self._vm
        assoc = self._assoc
        hit_key = (1 << 62) // assoc * assoc  # a multiple of assoc
        n = rows.size
        position = _np.arange(n)
        # sort by row (merge order within a row), then by round: an
        # event's round is its rank among its row's events
        keys = _np.sort(rows * n + position)
        by_row, sorted_rows = keys % n, keys // n
        heads = _np.flatnonzero(_np.r_[True, sorted_rows[1:] != sorted_rows[:-1]])
        rank = position - _np.repeat(heads, _np.diff(_np.r_[heads, n]))
        events = by_row[_np.sort(rank * n + position) % n]
        rows, blocks, writes, vms = (
            col[events] for col in (rows, blocks, writes, vms))
        stamps = (self._tick + events) * assoc
        self._tick += n
        quotas = self._quota_tables()
        hit = _np.empty(n, dtype=bool)
        victims = _np.full(n, -1, dtype=_np.int64)
        writebacks = 0
        lo = 0
        for hi in _np.cumsum(_np.bincount(rank)).tolist():
            r = rows[lo:hi]
            # a way's key is its stamp, pushed far below every stamp on
            # a hit; keys are unique and congruent to their way
            key = stamp.take(r, 0)
            key = _np.where(tag.take(r, 0) == blocks[lo:hi, None],
                            key - hit_key, key).min(1)
            way = key % assoc
            found = key < -assoc
            hit[lo:hi] = found
            evict = key >= 0
            if evict.any():
                if quotas is not None:
                    way[evict] = self._quota_victims(
                        quotas, r[evict], vms[lo:hi][evict], way[evict])
                rows_out, ways_out = r[evict], way[evict]
                victims[lo:hi][evict] = tag[rows_out, ways_out]
                writebacks += int(dirty[rows_out, ways_out].sum())
            stamp[r, way] = stamps[lo:hi] + way
            fill = slice(lo, hi)
            if found.any():
                fill = lo + _np.flatnonzero(~found)
                r, way = rows[fill], way[~found]
            tag[r, way] = blocks[fill]
            dirty[r, way] = writes[fill]
            owner[r, way] = vms[fill]
            lo = hi
        self.writebacks += writebacks
        # back to merge order
        hit[events], victims[events] = hit.copy(), victims.copy()
        return hit, victims

    def _quota_tables(self):
        """Each domain's live WayQuota and every vm code's quota there
        (_NEVER: none), or None when no domain has a quota."""
        quotas = [getattr(d, "quota", None) for d in self.machine.domains]
        if all(q is None for q in quotas):
            return None
        return quotas, _np.array(
            [[_NEVER if q is None else q.quotas.get(vm, _NEVER)
              for vm in self._vm_ids] for q in quotas], dtype=_np.int64)

    def _quota_victims(self, quotas, rows, vms, lru):
        """The victim ways of full rows under their domains' WayQuota.

        The rules of :meth:`WayQuota.victim_selector`, on the arrays:
        a VM at or over its quota (and holding a line) evicts its own
        LRU line; else the LRU line of any over-quota neighbour goes;
        else the set's LRU line.  The quota counters move as there.
        """
        objects, table = quotas
        stamp = self._stamp[rows]
        owners = self._vm[rows]
        doms = rows // self._num_sets
        limits = table[doms]
        own = owners == vms[:, None]
        mine = own.sum(1)
        rule1 = (mine > 0) & (mine >= limits[_np.arange(rows.size), vms])
        held = (owners[:, :, None] == owners[:, None, :]).sum(2)
        over = ~own & (held > _np.take_along_axis(limits, owners, 1))
        rule2 = ~rule1 & over.any(1)
        way = _np.where(rule1, _np.where(own, stamp, _NEVER).argmin(1),
                        _np.where(rule2, _np.where(over, stamp, _NEVER).argmin(1),
                                  lru))
        for d, count in zip(*_np.unique(doms[rule1], return_counts=True)):
            objects[d].self_evictions += int(count)
        for d, count in zip(*_np.unique(doms[rule2], return_counts=True)):
            objects[d].reclaims += int(count)
        return way

    def _c2c_levels(self, doms, sets, blocks, start_tag, start_dirty):
        """Each L2 miss's level: the first other domain (ascending)
        holding the block provides it, clean or dirty, else memory.
        Domains are read as a sequential fold sees them: end-of-fold by
        later domains' misses, start-of-epoch by earlier ones'."""
        level = _np.full(blocks.size, _MEMORY)
        for other in range(self._num_domains):
            lo, hi = _np.searchsorted(doms, [other, other + 1]).tolist()
            for start, stop, tag, dirty in (
                    (0, lo, start_tag, start_dirty),
                    (hi, blocks.size, self._tag, self._dirty)):
                span = start + _np.flatnonzero(level[start:stop] == _MEMORY)
                rows = other * self._num_sets + sets[span]
                match = tag.take(rows, 0) == blocks[span, None]
                found = _np.flatnonzero(match.any(1))
                held_dirty = (match[found] & dirty.take(rows[found], 0)).any(1)
                level[span[found]] = _np.where(held_dirty, _C2C_DIRTY, _C2C_CLEAN)
        return level

    def _peer_pass(self, domain_id, blocks, tids, victims):
        """One domain's misses, in merge order, against its recent-
        eviction window; returns the indices a sibling L1 supplies.

        Each miss tests the window, then its victim enters the window
        (the oldest entry goes when that overflows the cap), then the
        missed block leaves it.  A victim is never in the window
        already: a block re-enters the L2 only through a miss, which
        takes it out.  So the window is a FIFO with deletions, settled
        here in bulk (see :meth:`_trim_frontier`).
        """
        window = self._recent[domain_id]
        n = blocks.size
        inserted = _np.flatnonzero(victims >= 0)
        # the window's entries, oldest first: the carried-over ones, then
        # each victim.  On one time line a carried entry sits at 0 and
        # miss k tests at 3k+1, enters its victim at 3k+2 and deletes
        # its block at 3k+3.
        entry_blocks = _np.concatenate((window, victims[inserted]))
        m = entry_blocks.size
        times = _np.concatenate((_np.zeros(window.size, dtype=_np.int64),
                                 3 * inserted + 2, 3 * _np.arange(n) + 3))
        # a miss deletes the entry just before it in (block, time) order
        # (between two entries of a block there is always a miss of it)
        span = 3 * n + 4
        keys = _np.concatenate((entry_blocks, blocks)) * span + times
        order = _np.argsort(keys)
        keys = keys[order] // span
        pairs = _np.flatnonzero((order[:-1] < m) & (order[1:] >= m)
                                & (keys[:-1] == keys[1:]))
        deleted, deleter = order[pairs], order[pairs + 1] - m
        frontier = self._trim_frontier(window.size, times[window.size:m],
                                       deleted, times[m + deleter])
        live = _np.ones(m, dtype=bool)
        live[deleted] = False
        live[:frontier[-1] + 1 if frontier.size else 0] = False
        self._recent[domain_id] = entry_blocks[live]
        # a deleting miss hits unless its entry was trimmed before its test
        before = _np.searchsorted(inserted, deleter)
        seen = _np.concatenate(([-1], frontier))[before]
        found = _np.sort(deleter[deleted > seen])
        if not found.size:
            return found
        # the L2 dropped the line recently; a sibling L1 may still hold
        # it (the reference's intra-domain window)
        siblings = self._domain_threads[domain_id]
        held = _np.concatenate([state.resident for _, state in siblings])
        holder = _np.repeat([tid for tid, _ in siblings],
                            [state.resident.size for _, state in siblings])
        supplied = ((held == blocks[found, None])
                    & (holder != tids[found, None])).any(1)
        return found[supplied]

    def _trim_frontier(self, carried, times, deleted, deleted_times):
        """The window's trim frontier after each insertion.

        Entries are numbered oldest first, the ``carried`` ones from
        earlier epochs first, then the insertions at ``times``; entry
        ``deleted[i]`` leaves at ``deleted_times[i]``.  After each
        insertion the oldest live entry goes while more than the cap
        are live, so every entry at or below the frontier is gone: the
        frontier sits at the (cap+1)-th newest entry not yet deleted,
        and is a running maximum (-1: nothing trimmed).
        """
        size = carried + times.size
        by_time = _np.argsort(deleted_times)
        gone = deleted[by_time]
        # insertion q follows j[q] deletions, all of entries older than
        # q, so its frontier is its r-th entry not deleted (0: oldest)
        j = _np.searchsorted(deleted_times[by_time], times)
        r = carried + _np.arange(times.size) - j - self._evict_cap
        frontier = _np.full(times.size, -1)
        # the r-th integer outside a sorted set S is r plus the number
        # of i with S[i] - i <= r; one table row per prefix of the
        # deletions (in time order), a chunk of rows at a time
        for lo in range(0, gone.size + 1, self._TRIM_CHUNK):
            rows = _np.flatnonzero((j >= lo) & (j < lo + self._TRIM_CHUNK)
                                   & (r >= 0))
            if not rows.size:
                continue
            # the chunk's deletions ranked among the entries not deleted
            # before it, then sorted per prefix (padded with size)
            base = _np.sort(gone[:lo])
            new = gone[lo:lo + self._TRIM_CHUNK]
            new = new - _np.searchsorted(base, new)
            n = new.size
            table = _np.where(_np.arange(n) < _np.arange(n + 1)[:, None],
                              new, size)
            table.sort(1)
            table = _np.where(table < size, table - _np.arange(n), size)
            table += _np.arange(n + 1)[:, None] * (size + 1)
            k, rank = j[rows] - lo, r[rows]
            rank = rank + _np.searchsorted(
                table.ravel(), k * (size + 1) + rank, "right") - k * n
            frontier[rows] = rank + _np.searchsorted(
                base - _np.arange(lo), rank, "right")
        return _np.maximum.accumulate(frontier)

    def _dir_access(self, blocks, positions):
        """Directory-cache lookups, in order, at each block's home tile
        (LRU); returns the positions that missed.

        A tile whose residents plus this call's new blocks fit its
        capacity evicts nothing, so a lookup hits iff its block was
        cached or is a repeat; only a tile that can evict walks its
        lookups in order (:meth:`_dir_walk`).
        """
        n = blocks.size
        if not n:
            return positions
        tiles = self._dir_tiles
        top = int(blocks.max()) + 1
        if top > self._dir_stamp.size:
            grown = _np.zeros(max(top, 2 * self._dir_stamp.size), dtype=_np.int64)
            grown[:self._dir_stamp.size] = self._dir_stamp
            self._dir_stamp = grown
        stamp = self._dir_stamp
        # by block, then stream position
        keys = _np.sort(blocks * n + _np.arange(n))
        order, sorted_blocks = keys % n, keys // n
        first = _np.ones(n, dtype=bool)
        first[1:] = sorted_blocks[1:] != sorted_blocks[:-1]
        uniq = sorted_blocks[first]
        last = order[_np.append(first[1:], True)]
        new = stamp[uniq] == 0
        growth = _np.bincount(uniq[new] % tiles, minlength=tiles)
        walks = _np.flatnonzero(self._dir_count + growth > self._dir_capacity)
        hit_sorted = ~first
        hit_sorted[first] = ~new
        hit = _np.empty(n, dtype=bool)
        hit[order] = hit_sorted
        stamps = self._dir_clock + 1 + _np.arange(n)
        self._dir_clock += n
        if walks.size:
            keep = ~_np.isin(uniq % tiles, walks)
            uniq, last = uniq[keep], last[keep]
            growth[walks] = 0
            home = blocks % tiles
            for tile in walks.tolist():
                mine = _np.flatnonzero(home == tile)
                hit[mine] = self._dir_walk(tile, blocks[mine], stamps[mine])
        stamp[uniq] = stamps[last]
        self._dir_count += growth
        missed = positions[~hit]
        self.dir_misses += missed.size
        self.dir_hits += n - missed.size
        return missed

    def _dir_walk(self, tile, blocks, stamps):
        """One tile's lookups in order through an LRU dict rebuilt from
        the stamps; returns each lookup's hit flag."""
        tiles = self._dir_tiles
        view = self._dir_stamp[tile::tiles]  # the tile's blocks' stamps
        held = _np.flatnonzero(view)
        held = held[_np.argsort(view[held])]
        cache = dict(zip((held * tiles + tile).tolist(), view[held].tolist()))
        view[held] = 0
        capacity = self._dir_capacity
        hits = []
        for block, at in zip(blocks.tolist(), stamps.tolist()):
            hits.append(cache.pop(block, None) is not None)
            cache[block] = at
            if len(cache) > capacity:
                del cache[next(iter(cache))]
        resident = _np.fromiter(cache, dtype=_np.int64, count=len(cache))
        view[resident // tiles] = list(cache.values())
        self._dir_count[tile] = len(cache)
        return hits

    # ------------------------------------------------------------------
    # write reconciliation (upgrades + invalidations)
    # ------------------------------------------------------------------

    def _reconcile_writes(self, threads, batches, clocks) -> Dict[int, int]:
        """Epoch-boundary coherence pass over this epoch's writes.

        For each domain, the set of blocks written this epoch is
        resolved against L2 state: the *earliest* writing thread (by
        the same estimated-issue-time order as :meth:`_fold_l2`) pays
        an upgrade when the domain did not already hold the block
        dirty, and copies in other domains are invalidated.  Domains go
        in ascending order, each as array operations over its blocks.
        """
        mask = self._set_mask
        num_sets = self._num_sets
        tag, stamp, dirty = self._tag, self._stamp, self._dirty
        # domain -> [(block, estimated write time, thread id) columns]
        written: Dict[int, List] = {}
        for t in threads:
            tid = t.thread_id
            blocks, writes, _thinks = batches[tid]
            idx = _np.flatnonzero(writes)
            if idx.size:
                written.setdefault(self._domain_of_core[t.core_id], []).append(
                    (blocks[idx], clocks[tid] + (idx + 1) * self._rates[tid],
                     _np.full(idx.size, tid)))

        upgrades_by_thread: Dict[int, int] = {}
        for domain_id in sorted(written):
            blocks, est, tids = (_np.concatenate(col)
                                 for col in zip(*written[domain_id]))
            # each block's earliest (time, thread) write sorts first
            order = _np.lexsort((tids, est, blocks))
            _, first = _np.unique(blocks[order], return_index=True)
            blocks, tids = blocks[order[first]], tids[order[first]]
            sets = blocks & mask
            rows = domain_id * num_sets + sets
            match = tag[rows] == blocks[:, None]
            held = match.any(1)  # written blocks still L2-resident
            blocks, tids, sets = blocks[held], tids[held], sets[held]
            rows, way = rows[held], match[held].argmax(1)
            clean = ~dirty[rows, way]
            dirty[rows[clean], way[clean]] = True
            self.upgrades += int(clean.sum())
            payers, counts = _np.unique(tids[clean], return_counts=True)
            for tid, count in zip(payers.tolist(), counts.tolist()):
                upgrades_by_thread[tid] = upgrades_by_thread.get(tid, 0) + count
            # invalidate the copies in every other domain
            others = [d for d in range(self._num_domains) if d != domain_id]
            other_rows = _np.asarray(others, dtype=_np.int64) * num_sets
            other_rows = other_rows + sets[:, None]
            i, j, way = _np.nonzero(tag[other_rows] == blocks[:, None, None])
            rows = other_rows[i, j]
            self.invalidations += i.size
            self.writebacks += int(dirty[rows, way].sum())
            tag[rows, way] = -1
            stamp[rows, way] = way - self._assoc
            dirty[rows, way] = False
        return upgrades_by_thread

    # ------------------------------------------------------------------
    # stats + clock accounting
    # ------------------------------------------------------------------

    def _account_epoch(self, threads, batches, levels, upgrades_by_thread,
                       dir_penalties, clocks, vm_pending,
                       vm_completion) -> dict:
        """Fold the epoch into ThreadStats, clocks, and completions.

        Returns the arrival counts feeding next epoch's queueing
        estimates.
        """
        l2_arrivals = [0] * self._num_domains
        mem_arrivals = 0
        flit_cycles = 0.0
        completed_vms = []
        for t in threads:
            tid = t.thread_id
            blocks, writes, thinks = batches[tid]
            lv = levels[tid]
            n = len(blocks)
            lat = self._epoch_latencies(t.core_id)
            counts = _level_counts(lv)
            think_total = float(thinks.sum())
            lat_total = 0.0
            for level, count in enumerate(counts):
                lat_total += count * lat[level]
            upgrades = upgrades_by_thread.get(tid, 0)
            upgrade_cycles = upgrades * self._upgrade_cost[t.core_id]
            penalties = dir_penalties.get(tid, ())
            mem_lat = float(self.machine.config.memory_latency)
            lat_total += len(penalties) * mem_lat
            domain = self._domain_of_core[t.core_id]
            l2_arrivals[domain] += sum(counts[_L2:])
            mem_arrivals += counts[HitLevel.MEMORY]
            ch = self._ctrl_hops[t.core_id]
            dh = self._data_hops[t.core_id]
            for level in _MISS_LEVELS:
                if counts[level]:
                    legs = ch[level] + dh[level]
                    flits = (ch[level] * self._ctrl_flits
                             + dh[level] * self._data_flits)
                    flit_cycles += counts[level] * flits
                    self.net_messages += counts[level]
                    self.net_hops += int(counts[level] * legs)
                    self.net_cycles += counts[level] * (
                        lat[level] - self._lat[t.core_id][level]
                        + (ch[level] + dh[level]) * self._hop_cycles
                    )
            flit_cycles += upgrades * self._upgrade_hops[t.core_id]

            issued_before = t.issued
            window_start = t.warmup_refs
            window_end = t.warmup_refs + t.measured_refs
            a = min(n, max(0, window_start - issued_before))
            b = min(n, max(0, window_end - issued_before))
            if b > a:
                self._record_window(t, blocks, writes, thinks, lv, lat,
                                    a, b, counts)
                if penalties:
                    in_window = (bisect_left(penalties, b)
                                 - bisect_left(penalties, a))
                    if in_window:
                        extra = int(round(in_window * mem_lat))
                        t.stats.latency_cycles += extra
                        t.stats.miss_latency_cycles += extra
                        t.stats.memory_cycles += extra
                if upgrades:
                    frac = (b - a) / n
                    t.stats.latency_cycles += int(round(
                        upgrade_cycles * frac))
            t.issued += n

            # completion: the thread's measured window ends inside this
            # epoch -> its completion instant is the partial clock
            if issued_before < window_end <= issued_before + n:
                k = window_end - issued_before
                partial = (
                    k
                    + float(thinks[:k].sum())
                    + float(_np.asarray(lat)[lv[:k]].sum())
                    + bisect_left(penalties, k) * mem_lat
                )
                t.completion_time = int(round(clocks[tid] + partial))
                vm_pending[t.vm_id] -= 1
                if vm_pending[t.vm_id] == 0:
                    completed_vms.append(t.vm_id)

            clocks[tid] += n + think_total + lat_total + upgrade_cycles

        for vm in completed_vms:
            finish = max(
                t.completion_time for t in threads if t.vm_id == vm
            )
            vm_completion[vm] = finish
            if self.probe is not None:
                self.probe.on_vm_complete(vm, finish)
        return {
            "l2": l2_arrivals,
            "mem": mem_arrivals,
            "flit_cycles": flit_cycles,
        }

    def _record_window(self, t, blocks, writes, thinks, lv, lat, a, b,
                       full_counts) -> None:
        n = len(blocks)
        stats = t.stats
        if a == 0 and b == n:
            counts = full_counts
            w = writes.sum()
            think = thinks.sum()
        else:
            counts = _level_counts(lv[a:b])
            w = writes[a:b].sum()
            think = thinks[a:b].sum()
        refs = b - a
        stats.refs += refs
        stats.writes += int(w)
        stats.reads += refs - int(w)
        stats.think_cycles += int(think)
        lat_total = 0.0
        miss_lat = 0.0
        mem_cycles = 0.0
        dir_cycles = 0.0
        for level, count in enumerate(counts):
            if not count:
                continue
            contribution = count * lat[level]
            lat_total += contribution
            hl = HitLevel(level)
            stats.level_counts[hl] += count
            if hl.is_l1_miss:
                miss_lat += contribution
            if hl == HitLevel.MEMORY:
                mem_cycles += count * (self.machine.config.memory_latency
                                       + self._w_mem)
            if hl in (HitLevel.C2C_CLEAN, HitLevel.C2C_DIRTY,
                      HitLevel.MEMORY):
                dir_cycles += count * self.machine.config.directory_latency
        stats.latency_cycles += int(round(lat_total))
        stats.miss_latency_cycles += int(round(miss_lat))
        stats.memory_cycles += int(round(mem_cycles))
        stats.directory_cycles += int(round(dir_cycles))
        # attribute the remainder between cache and network roughly:
        # network gets the hop terms, cache the rest
        net = 0.0
        ch = self._ctrl_hops[t.core_id]
        dh = self._data_hops[t.core_id]
        for level, count in enumerate(counts):
            if count:
                net += count * (ch[level] + dh[level]) * self._hop_cycles
        stats.network_cycles += int(round(net))
        stats.cache_cycles += int(round(
            lat_total - mem_cycles - dir_cycles - net
        ))

    # ------------------------------------------------------------------
    # queueing reconciliation
    # ------------------------------------------------------------------

    def _update_queue_estimates(self, now: float, arrivals: dict) -> None:
        horizon = max(1.0, now - self._prev_now)
        self._prev_now = now
        s2 = self._l2_service
        for d in range(self._num_domains):
            rho = arrivals["l2"][d] * s2 / horizon
            self._w_l2[d] = self._md1_wait(s2, rho)
        sm = self._mem_service
        rho_mem = arrivals["mem"] * sm / (self._mem_controllers * horizon)
        self._w_mem = self._md1_wait(sm, rho_mem)
        self._rho_link = min(
            0.95, arrivals["flit_cycles"] / (self._num_links * horizon)
        )

    # ------------------------------------------------------------------
    # inspection surface (probes, experiment summary)
    # ------------------------------------------------------------------

    def queue_depths(self, now: int) -> Dict[str, float]:
        """Estimated shared-resource waits (probe-compatible)."""
        return {
            "l2": sum(self._w_l2) / max(1, len(self._w_l2)),
            "memory": self._w_mem,
            "link": self._md1_wait(self._ctrl_flits, self._rho_link),
        }

    def l2_occupancy_share(self) -> Dict[int, float]:
        lines = _np.bincount(self._vm[self._stamp >= 0],
                             minlength=len(self._vm_ids)).tolist()
        resident = sum(lines)
        return {vm: count / resident for vm, count in zip(self._vm_ids, lines)
                if count and vm >= 0}

    def l2_snapshot_by_vm(self) -> List[Dict[int, int]]:
        valid = (self._stamp >= 0).reshape(self._num_domains, -1)
        owners = self._vm.reshape(self._num_domains, -1)
        vm_ids = self._vm_ids
        return [
            {vm_ids[code]: lines for code, lines in enumerate(
                _np.bincount(owners[d][valid[d]],
                             minlength=len(vm_ids)).tolist()) if lines}
            for d in range(self._num_domains)
        ]

    def l2_resident_sets(self) -> List[set]:
        valid = (self._stamp >= 0).reshape(self._num_domains, -1)
        tags = self._tag.reshape(self._num_domains, -1)
        return [set(tags[d][valid[d]].tolist())
                for d in range(self._num_domains)]

    def summary_counters(self) -> dict:
        """Counters for :class:`repro.core.experiment.ChipSummary`."""
        messages = max(1, self.net_messages)
        return {
            "mesh_mean_latency": self.net_cycles / messages,
            "mesh_mean_queueing": 0.0,
            "mesh_mean_hops": self.net_hops / messages,
            "c2c_clean": self.c2c_clean,
            "c2c_dirty": self.c2c_dirty,
            "memory_fetches": self.memory_fetches,
            "coherence_writebacks": self.writebacks,
            "invalidations": self.invalidations,
            "upgrades": self.upgrades,
            "intra_domain_transfers": self.intra_domain_transfers,
            "directory_cache_hit_rate": (
                self.dir_hits / (self.dir_hits + self.dir_misses)
                if (self.dir_hits + self.dir_misses) else 0.0
            ),
            "memory_reads": self.memory_fetches,
            "memory_writebacks": self.writebacks,
        }
