"""Direct tests for replacement policies."""

import pytest

from repro.caches.replacement import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    make_policy,
)
from repro.errors import ConfigurationError


class TestMakePolicy:
    def test_known_names(self):
        assert isinstance(make_policy("lru"), LruPolicy)
        assert isinstance(make_policy("fifo"), FifoPolicy)
        assert isinstance(make_policy("random"), RandomPolicy)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown replacement"):
            make_policy("plru")

    def test_random_seed_forwarded(self):
        a = make_policy("random", seed=7)
        b = make_policy("random", seed=7)
        victims_a = [a.victim({i: None for i in range(8)}) for _ in range(10)]
        victims_b = [b.victim({i: None for i in range(8)}) for _ in range(10)]
        assert victims_a == victims_b


class TestPromotionSemantics:
    def test_lru_promotes(self):
        assert LruPolicy().promotes_on_hit

    def test_fifo_and_random_do_not(self):
        assert not FifoPolicy().promotes_on_hit
        assert not RandomPolicy().promotes_on_hit


class TestVictimSelection:
    def test_lru_picks_head(self):
        cache_set = {5: None, 9: None, 1: None}
        assert LruPolicy().victim(cache_set) == 5

    def test_fifo_picks_head(self):
        cache_set = {3: None, 2: None}
        assert FifoPolicy().victim(cache_set) == 3

    def test_random_picks_member(self):
        cache_set = {i: None for i in range(4)}
        policy = RandomPolicy(seed=1)
        for _ in range(20):
            assert policy.victim(cache_set) in cache_set


class TestClone:
    def test_stateless_clone_is_self(self):
        policy = LruPolicy()
        assert policy.clone() is policy

    def test_random_clone_is_fresh(self):
        policy = RandomPolicy(seed=3)
        clone = policy.clone()
        assert clone is not policy
        cache_set = {i: None for i in range(8)}
        assert [policy.victim(cache_set) for _ in range(5)] == [
            clone.victim(cache_set) for _ in range(5)
        ]

    def test_repr(self):
        assert "Lru" in repr(LruPolicy())
        assert "seed=3" in repr(RandomPolicy(seed=3))
