"""The batched kernel's array passes against plain in-order models.

``BatchedEngine._replay`` applies an epoch's L2 events in lock-step
rounds (the r-th event of every set at once) and ``_quota_victims``
evaluates the way-quota victim rules on the arrays.  Both must equal a
one-event-at-a-time walk: an ``OrderedDict`` LRU per set of line
objects, and the way-quota rules over those objects
(:func:`_object_selector`, the oracle), which
:meth:`WayQuota.victim_selector` must also match on the same set packed
into L2 line codes.  The geometry is tiny (4 domains x 4 sets x 4 ways)
so random streams overflow sets often.

``_peer_pass`` settles each domain's recent-eviction window in bulk and
``_dir_access`` each tile's directory cache; both must equal the walk
in merge order through one ``OrderedDict`` per domain or tile, at
capacities small enough to trim and evict in every epoch.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.caches.hierarchy import encode_line
from repro.caches.partitioning import WayQuota
from repro.machine import Chip, MachineConfig
from repro.sim import BatchedEngine, MemoryReference, ThreadContext

DOMAINS, SETS, ASSOC = 4, 4, 4
VMS = 3
BLOCKS = SETS * 6  # six candidate blocks per set: heavy conflicts


def _engine():
    chip = Chip(MachineConfig(num_cores=16, l2_total_bytes=4096,
                              l2_assoc=ASSOC))
    assert chip.config.l2_geometry().num_sets == SETS

    def stream():
        while True:
            yield MemoryReference(0, 0, 0)

    # vm ids 0..VMS-1, so the engine's vm codes equal the vm ids
    threads = [
        ThreadContext(thread_id=core, vm_id=core % VMS, core_id=core,
                      references=stream(), measured_refs=1, warmup_refs=0)
        for core in range(16)
    ]
    return BatchedEngine(chip, threads), threads


def _replay(engine, events):
    """Feed (domain, block, write, vm) events to the lock-step replay."""
    domains, blocks, writes, vms = (np.asarray(col, dtype=np.int64)
                                    for col in zip(*events))
    rows = domains * SETS + blocks % SETS
    return engine._replay(rows, blocks, writes.astype(bool), vms)


class _Line:
    def __init__(self, vm_id, dirty):
        self.vm_id = vm_id
        self.dirty = dirty


def _object_selector(quota, vm_id, cache_set):
    """The way-quota victim rules over a set of line objects (LRU
    first); counts on ``quota`` like :meth:`WayQuota.victim_selector`."""
    quotas = quota.quotas
    my_quota = quotas.get(vm_id)
    counts = {}
    for line in cache_set.values():
        counts[line.vm_id] = counts.get(line.vm_id, 0) + 1
    if my_quota is not None and counts.get(vm_id, 0) >= my_quota:
        # rule 1: evict own LRU line
        for block, line in cache_set.items():
            if line.vm_id == vm_id:
                quota.self_evictions += 1
                return block
    # rule 2: reclaim from an over-quota neighbour
    for block, line in cache_set.items():
        owner = line.vm_id
        owner_quota = quotas.get(owner)
        if (owner_quota is not None and owner != vm_id
                and counts[owner] > owner_quota):
            quota.reclaims += 1
            return block
    return None  # rule 3: fall back to vanilla LRU


def _model_access(sets, row, block, write, vm, quota=None):
    """One event on an OrderedDict LRU set: (hit, victim, writeback)."""
    cache_set = sets.setdefault(row, OrderedDict())
    if block in cache_set:
        cache_set.move_to_end(block)
        return True, -1, False
    victim, writeback = -1, False
    if len(cache_set) >= ASSOC:
        chosen = None
        if quota:
            chosen = _object_selector(quota, vm, cache_set)
            packed = {b: encode_line(line.dirty, line.vm_id)
                      for b, line in cache_set.items()}
            twin = _way_quota(quota.quotas)
            assert twin.victim_selector(vm)(packed) == chosen
        victim = next(iter(cache_set)) if chosen is None else chosen
        writeback = cache_set.pop(victim).dirty
    cache_set[block] = _Line(vm, bool(write))
    return False, victim, writeback


def _model_reconcile(sets, written):
    """Mark written resident lines dirty; drop every other domain's copy."""
    invalidations = writebacks = 0
    for domain in sorted(written):
        for block in sorted(set(written[domain])):
            line = sets.get(domain * SETS + block % SETS, {}).get(block)
            if line is None:
                continue
            line.dirty = True
            for other in range(DOMAINS):
                if other != domain:
                    dropped = sets.get(other * SETS + block % SETS, {}).pop(
                        block, None)
                    if dropped is not None:
                        invalidations += 1
                        writebacks += dropped.dirty
    return invalidations, writebacks


def _reconcile(engine, threads, written):
    """Drive the engine's write reconciliation with one writing thread
    per domain."""
    placement = engine.machine.placement
    batch = {}
    for domain, blocks in written.items():
        tid = placement.domains[domain][0]
        blocks = np.asarray(blocks, dtype=np.int64)
        batch[tid] = (blocks, np.ones_like(blocks), np.zeros_like(blocks))
    writers = [t for t in threads if t.thread_id in batch]
    engine._reconcile_writes(writers, batch, {t: 0.0 for t in batch})


def _rows(engine):
    """Each row's resident (block, dirty, vm) lines, LRU first."""
    out = {}
    for row in range(DOMAINS * SETS):
        valid = np.flatnonzero(engine._stamp[row] >= 0)
        ways = valid[np.argsort(engine._stamp[row][valid])]
        lines = [(int(engine._tag[row, w]), bool(engine._dirty[row, w]),
                  int(engine._vm[row, w])) for w in ways]
        if lines:
            out[row] = lines
    return out


def _model_rows(sets):
    return {row: [(block, line.dirty, line.vm_id)
                  for block, line in cache_set.items()]
            for row, cache_set in sets.items() if cache_set}


_event = st.tuples(st.integers(0, DOMAINS - 1), st.integers(0, BLOCKS - 1),
                   st.booleans(), st.integers(0, VMS - 1))
_writes = st.dictionaries(st.integers(0, DOMAINS - 1),
                          st.lists(st.integers(0, BLOCKS - 1), min_size=1,
                                   max_size=6), max_size=DOMAINS)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(_event, min_size=1, max_size=80),
                          _writes), min_size=1, max_size=4))
def test_lockstep_replay_matches_per_set_lru(epochs):
    engine, threads = _engine()
    sets = {}
    for events, written in epochs:
        before = engine.writebacks
        hit, victims = _replay(engine, events)
        expected = [_model_access(sets, d * SETS + b % SETS, b, w, vm)
                    for d, b, w, vm in events]
        assert hit.tolist() == [e[0] for e in expected]
        assert victims.tolist() == [e[1] for e in expected]
        assert engine.writebacks - before == sum(e[2] for e in expected)

        before = (engine.invalidations, engine.writebacks)
        _reconcile(engine, threads, written)
        invalidations, writebacks = _model_reconcile(sets, written)
        assert engine.invalidations - before[0] == invalidations
        assert engine.writebacks - before[1] == writebacks
        assert _rows(engine) == _model_rows(sets)

    resident = engine.l2_resident_sets()
    occupancy = engine.l2_snapshot_by_vm()
    for domain in range(DOMAINS):
        lines = [line for row, cache_set in sets.items()
                 if row // SETS == domain for line in cache_set.items()]
        assert resident[domain] == {block for block, _ in lines}
        counts = {}
        for _, line in lines:
            counts[line.vm_id] = counts.get(line.vm_id, 0) + 1
        assert occupancy[domain] == counts


_quotas = st.dictionaries(st.integers(0, VMS - 1), st.integers(0, ASSOC),
                          min_size=1, max_size=VMS)


def _way_quota(quotas):
    quota = WayQuota({vm: 1 for vm in quotas}, ASSOC)
    # a zero quota is below WayQuota's validation, so write it directly
    quota.quotas.update(quotas)
    return quota


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, DOMAINS - 1),
                          st.integers(0, SETS - 1),
                          st.lists(st.integers(0, VMS - 1), min_size=ASSOC,
                                   max_size=ASSOC),
                          st.integers(0, VMS - 1)),
                min_size=1, max_size=12, unique_by=lambda s: s[:2]),
       st.lists(st.none() | _quotas, min_size=DOMAINS, max_size=DOMAINS))
def test_array_quota_rule_matches_victim_selector(full_sets, quotas):
    engine, _threads = _engine()
    # fill each chosen set (LRU first) with no quota installed
    fills = [(d, s + SETS * k, False, owner)
             for d, s, owners, _vm in full_sets
             for k, owner in enumerate(owners)]
    _replay(engine, fills)
    sets = {}
    for d, block, write, owner in fills:
        _model_access(sets, d * SETS + block % SETS, block, write, owner)

    # a domain drawn None keeps plain LRU next to the quota domains
    models = [None if q is None else _way_quota(q) for q in quotas]
    for domain, domain_quotas in enumerate(quotas):
        engine.machine.domains[domain].set_quota(
            None if domain_quotas is None else _way_quota(domain_quotas))
    inserts = [(d, s + SETS * ASSOC, False, vm) for d, s, _owners, vm in full_sets]
    _hit, victims = _replay(engine, inserts)
    expected = [_model_access(sets, d * SETS + block % SETS, block, write, vm,
                              models[d])[1]
                for d, block, write, vm in inserts]
    assert victims.tolist() == expected
    for domain, model in enumerate(models):
        quota = engine.machine.domains[domain].quota
        if model is not None:
            assert (quota.self_evictions, quota.reclaims) == (
                model.self_evictions, model.reclaims)


def test_zero_quota_falls_through_to_reclaim():
    # VM 2 has a zero quota and no line in the full set, so rule 1 finds
    # nothing of its own and rule 2 reclaims VM 0's over-quota LRU line
    engine, _threads = _engine()
    _replay(engine, [(0, SETS * k, False, owner)
                     for k, owner in enumerate([1, 0, 0, 0])])
    engine.machine.domains[0].set_quota(_way_quota({0: 1, 1: 2, 2: 0}))
    _hit, victims = _replay(engine, [(0, SETS * ASSOC, False, 2)])
    quota = engine.machine.domains[0].quota
    assert victims.tolist() == [SETS * 1]
    assert (quota.self_evictions, quota.reclaims) == (0, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300))
def test_merge_order_matches_lexsort(seed, size):
    # few distinct estimates, so ties fall to the index, then the thread
    rng = np.random.default_rng(seed)
    engine, _threads = _engine()
    pairs = rng.choice(16 * 64, size, replace=False)
    idx, tids = pairs // 16, pairs % 16
    doms = rng.integers(0, DOMAINS, size)
    est = rng.integers(0, 8, size) * 0.5
    order = engine._merge_order(doms, est, idx, tids)
    assert order.tolist() == np.lexsort((tids, idx, est, doms)).tolist()


def _model_window(recent, cap, misses, residents):
    """Misses (block, thread, victim) in order through an OrderedDict
    window; returns the indices a sibling's resident blocks supply."""
    peer = []
    for k, (block, tid, victim) in enumerate(misses):
        if block in recent and any(
                other != tid and block in held
                for other, held in residents.items()):
            peer.append(k)
        if victim >= 0:
            recent[victim] = None
            recent.move_to_end(victim)
            if len(recent) > cap:
                recent.popitem(last=False)
        recent.pop(block, None)
    return peer


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.lists(st.integers(20, 200), min_size=1, max_size=5))
def test_bulk_peer_window_matches_ordered_walk(cap, seed, sizes):
    rng = np.random.default_rng(seed)
    engine, threads = _engine()
    engine._evict_cap = cap
    placement = engine.machine.placement
    windows = [OrderedDict() for _ in range(DOMAINS)]
    for size in sizes:
        residents = [rng.choice(BLOCKS, rng.integers(0, 9), replace=False)
                     for _ in threads]
        for tid, held in enumerate(residents):
            engine._private[tid].resident = held.astype(np.int64)
        # the victims come from the L2 replay, as in the kernel
        doms = rng.integers(0, DOMAINS, size)
        blocks = rng.integers(0, BLOCKS, size)
        tids = np.asarray(placement.domains)[doms, rng.integers(0, 4, size)]
        hit, victims = engine._replay(doms * SETS + blocks % SETS, blocks,
                                      np.zeros(size, dtype=bool), tids % VMS)
        for domain in range(DOMAINS):
            mine = np.flatnonzero(~hit & (doms == domain))
            got = engine._peer_pass(domain, blocks[mine], tids[mine],
                                    victims[mine])
            expected = _model_window(
                windows[domain], cap,
                list(zip(blocks[mine].tolist(), tids[mine].tolist(),
                         victims[mine].tolist())),
                {tid: set(residents[tid].tolist())
                 for tid in placement.domains[domain]})
            assert got.tolist() == expected
            assert engine._recent[domain].tolist() == list(windows[domain])
        # invalidations drop L2 lines without entering the window
        written = {d: rng.integers(0, BLOCKS, 3).tolist()
                   for d in range(DOMAINS) if rng.random() < 0.5}
        _reconcile(engine, threads, written)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(1, 60),
       st.floats(0.0, 0.9), st.sampled_from([1, 3, 256]))
def test_trim_frontier_matches_fifo_walk(cap, seed, inserts, delete_share,
                                         chunk):
    # an abstract FIFO: carried entries, then one insertion per step k
    # (time 3k+2); a deleted entry leaves at some later step (3j+3)
    rng = np.random.default_rng(seed)
    engine, _threads = _engine()
    engine._evict_cap = cap
    engine._TRIM_CHUNK = chunk  # small chunks split the deletions
    carried = int(rng.integers(0, cap + 1))
    steps = np.sort(rng.choice(inserts * 2, inserts, replace=False))
    times = 3 * steps + 2
    entry_steps = np.concatenate((np.full(carried, -1), steps))
    deleted = np.flatnonzero(rng.random(entry_steps.size) < delete_share)
    deleted_times = 3 * rng.integers(entry_steps[deleted] + 1,
                                     2 * inserts + 1) + 3
    frontier = engine._trim_frontier(carried, times, deleted, deleted_times)

    live, gone, expected = OrderedDict.fromkeys(range(carried)), -1, []
    leaves = sorted(zip(deleted_times.tolist(), deleted.tolist()))
    for q, at in enumerate(times.tolist(), start=carried):
        while leaves and leaves[0][0] < at:
            live.pop(leaves.pop(0)[1], None)
        live[q] = None
        while len(live) > cap:
            gone = max(gone, live.popitem(last=False)[0])
        expected.append(gone)
    assert frontier.tolist() == expected


def _model_directory(caches, capacity, blocks, tiles):
    """Lookups in order through one OrderedDict LRU per tile; returns
    each lookup's hit flag."""
    hits = []
    for block in blocks:
        cache = caches.setdefault(block % tiles, OrderedDict())
        hits.append(block in cache)
        if block in cache:
            cache.move_to_end(block)
        else:
            cache[block] = None
            if len(cache) > capacity:
                cache.popitem(last=False)
    return hits


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(16, 2000), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 400), min_size=1, max_size=6))
def test_bulk_directory_cache_matches_per_tile_lru(capacity, spread, seed,
                                                    sizes):
    rng = np.random.default_rng(seed)
    engine, _threads = _engine()
    engine._dir_capacity = capacity
    tiles = engine._dir_tiles
    caches = {}
    for size in sizes:
        # a narrow block range, so tiles refill and re-hit
        blocks = rng.integers(0, spread, size)
        positions = np.arange(size) * 3 + 1
        before = engine.dir_hits, engine.dir_misses
        missed = engine._dir_access(blocks, positions)
        hits = _model_directory(caches, capacity, blocks.tolist(), tiles)
        assert missed.tolist() == positions[~np.asarray(hits, dtype=bool)].tolist()
        assert (engine.dir_hits - before[0], engine.dir_misses - before[1]) == (
            sum(hits), size - sum(hits))
        # the stamps hold each tile's LRU order
        stamp = engine._dir_stamp
        for tile in range(tiles):
            held = np.flatnonzero(stamp[tile::tiles]) * tiles + tile
            order = held[np.argsort(stamp[held])].tolist()
            assert order == list(caches.get(tile, {}))
            assert engine._dir_count[tile] == len(order)
