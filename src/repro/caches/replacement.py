"""Replacement policies for set-associative caches.

The paper evaluates vanilla LRU ("With a vanilla-LRU block replacement
policy, there are no guarantees on any core's allocation in the cache",
Section III-B) — LRU is therefore the default everywhere.  Random and
FIFO are provided for the ablation benchmarks: they let us test how
sensitive the consolidation interference results are to the replacement
policy, one of the design choices DESIGN.md calls out.

A policy operates on the ordered ``dict`` that backs one cache set.  The
dict's insertion order encodes recency for LRU (lookup re-inserts on
hit); FIFO simply never re-inserts; random ignores order entirely.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ConfigurationError

__all__ = ["ReplacementPolicy", "LruPolicy", "FifoPolicy", "RandomPolicy", "make_policy"]


class ReplacementPolicy:
    """Interface for victim selection and hit promotion."""

    #: whether a hit should move the line to most-recently-used position
    promotes_on_hit: bool = False

    def victim(self, cache_set: Dict[int, object]) -> int:
        """Pick the block to evict from a full set."""
        raise NotImplementedError

    def clone(self) -> "ReplacementPolicy":
        """Fresh policy instance with identical configuration.

        Stateless policies may return ``self``; stateful ones (seeded
        random) must return an independent copy so two caches never
        share a random stream.
        """
        return self


class LruPolicy(ReplacementPolicy):
    """Least-recently-used: evict the head of the recency order."""

    promotes_on_hit = True

    def victim(self, cache_set: Dict[int, object]) -> int:
        return next(iter(cache_set))

    def __repr__(self) -> str:
        return "LruPolicy()"


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: like LRU but hits do not refresh recency."""

    promotes_on_hit = False

    def victim(self, cache_set: Dict[int, object]) -> int:
        return next(iter(cache_set))

    def __repr__(self) -> str:
        return "FifoPolicy()"


class RandomPolicy(ReplacementPolicy):
    """Uniform-random victim selection.

    Parameters
    ----------
    seed:
        Seed for the policy's private random stream; required so runs
        stay reproducible.
    """

    promotes_on_hit = False

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def victim(self, cache_set: Dict[int, object]) -> int:
        keys = list(cache_set)
        return keys[int(self._rng.integers(len(keys)))]

    def clone(self) -> "RandomPolicy":
        return RandomPolicy(self._seed)

    def __repr__(self) -> str:
        return f"RandomPolicy(seed={self._seed})"


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, seed: Optional[int] = None) -> ReplacementPolicy:
    """Construct a policy by name: ``"lru"``, ``"fifo"``, or ``"random"``."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return RandomPolicy(seed=0 if seed is None else seed)
    return cls()
