"""Cache substrate: geometries, arrays, replacement, and the hierarchy."""

from .geometry import L0_GEOMETRY, L1_GEOMETRY, CacheGeometry, l2_domain_geometry
from .hierarchy import CoreCacheStack, L2Domain
from .replacement import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from .setassoc import SetAssocCache

__all__ = [
    "L0_GEOMETRY",
    "L1_GEOMETRY",
    "CacheGeometry",
    "l2_domain_geometry",
    "CoreCacheStack",
    "L2Domain",
    "FifoPolicy",
    "LruPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "make_policy",
    "SetAssocCache",
]
