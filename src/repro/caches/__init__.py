"""Cache substrate: geometries, arrays, replacement, and the hierarchy."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .geometry import (L0_GEOMETRY, L1_GEOMETRY, CacheGeometry,
                           l2_domain_geometry)
    from .hierarchy import CoreCacheStack, L2Domain
    from .replacement import (FifoPolicy, LruPolicy, RandomPolicy,
                              ReplacementPolicy, make_policy)
    from .setassoc import SetAssocCache

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "geometry": ("L0_GEOMETRY", "L1_GEOMETRY", "CacheGeometry",
                 "l2_domain_geometry"),
    "hierarchy": ("CoreCacheStack", "L2Domain"),
    "replacement": ("FifoPolicy", "LruPolicy", "RandomPolicy",
                    "ReplacementPolicy", "make_policy"),
    "setassoc": ("SetAssocCache",),
})
