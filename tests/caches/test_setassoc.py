"""Tests for the set-associative cache array."""

from hypothesis import given, settings, strategies as st

from repro.caches.geometry import CacheGeometry
from repro.caches.replacement import FifoPolicy, RandomPolicy
from repro.caches.setassoc import SetAssocCache


class _Line:
    """A per-line value: the array stores whatever its owner puts in."""

    __slots__ = ("dirty",)

    def __init__(self, dirty=False):
        self.dirty = dirty


def small_cache(assoc=2, sets=4, policy=None):
    geometry = CacheGeometry(size_bytes=assoc * sets * 64, assoc=assoc, latency=1)
    return SetAssocCache(geometry, policy=policy)


class TestBasicOperations:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.lookup(5) is None
        c.insert(5, _Line())
        assert c.lookup(5) is not None

    def test_peek_does_not_refresh_lru(self):
        c = small_cache(assoc=2, sets=1)
        c.insert(0, _Line())
        c.insert(1, _Line())
        assert c.peek(0) is not None and c.peek(2) is None
        evicted = c.insert(2, _Line())
        assert evicted[0] == 0

    def test_lru_eviction_order(self):
        c = small_cache(assoc=2, sets=1)
        c.insert(0, _Line())
        c.insert(1, _Line())
        c.lookup(0)  # 0 is now MRU
        evicted = c.insert(2, _Line())
        assert evicted[0] == 1

    def test_insert_same_block_no_eviction(self):
        c = small_cache(assoc=2, sets=1)
        c.insert(0, _Line())
        c.insert(1, _Line())
        assert c.insert(0, _Line()) is None
        assert len(c) == 2

    def test_set_isolation(self):
        """Blocks mapping to different sets never evict each other."""
        c = small_cache(assoc=1, sets=4)
        for block in range(4):
            assert c.insert(block, _Line()) is None
        assert len(c) == 4

    def test_invalidate(self):
        c = small_cache()
        c.insert(3, _Line())
        assert c.invalidate(3) is not None
        assert c.invalidate(3) is None
        assert 3 not in c

    def test_dirty_eviction_counted(self):
        # the victim comes back with its line, which the caller counts
        # as a writeback
        c = small_cache(assoc=1, sets=1)
        c.insert(0, _Line(dirty=True))
        victim, line = c.insert(64, _Line())
        assert victim == 0 and line.dirty

    def test_occupancy_and_contents(self):
        c = small_cache(assoc=2, sets=4)
        c.insert(1, _Line())
        c.insert(2, _Line())
        assert len(c) == 2
        assert {b for b, _ in c.contents()} == {1, 2}


class TestFifoPolicy:
    def test_hits_do_not_refresh(self):
        c = small_cache(assoc=2, sets=1, policy=FifoPolicy())
        c.insert(0, _Line())
        c.insert(1, _Line())
        c.lookup(0)  # does NOT make 0 MRU under FIFO
        evicted = c.insert(2, _Line())
        assert evicted[0] == 0


class TestRandomPolicy:
    def test_deterministic_with_seed(self):
        def run():
            c = small_cache(assoc=4, sets=1, policy=RandomPolicy(seed=7))
            order = []
            for block in range(20):
                evicted = c.insert(block, _Line())
                if evicted:
                    order.append(evicted[0])
            return order

        assert run() == run()

    def test_clone_is_independent(self):
        p = RandomPolicy(seed=3)
        c1 = small_cache(policy=p)
        c2 = small_cache(policy=p)
        assert c1.policy is not c2.policy


class TestCacheProperties:
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=500))
    @settings(max_examples=50)
    def test_capacity_never_exceeded(self, blocks):
        c = small_cache(assoc=2, sets=4)
        for block in blocks:
            c.lookup(block)
            if c.peek(block) is None:
                c.insert(block, _Line())
        assert len(c) <= 8
        per_set = [0] * 4
        for block, _line in c.contents():
            per_set[block % 4] += 1
        assert max(per_set) <= 2

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_inclusion_of_recent_blocks(self, blocks):
        """The most recently inserted block is always resident."""
        c = small_cache(assoc=2, sets=4)
        for block in blocks:
            if c.lookup(block) is None:
                c.insert(block, _Line())
            assert block in c

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=300))
    @settings(max_examples=30)
    def test_stats_balance(self, blocks):
        # every miss inserts, and an insert either grows the array or
        # hands back exactly one victim
        c = small_cache(assoc=2, sets=2)
        insertions = evictions = 0
        for block in blocks:
            if c.lookup(block) is None:
                insertions += 1
                evictions += c.insert(block, _Line()) is not None
        assert insertions - evictions == len(c)
