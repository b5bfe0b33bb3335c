"""Simulation substrate: RNG streams, records, engines, engine factory."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from ._batchfold import PrivateState, fold_private
    from .batched import BatchedEngine
    from .dynamic import AffinityRebinder, MigratingEngine, RandomRebinder
    from .engine import (Engine, EngineResult, MachineModel, ThreadContext,
                         ThreadStats)
    from .factory import (EngineRequest, engine_modes, make_engine,
                          resolve_mode)
    from .overcommit import OvercommitEngine
    from .records import (BLOCK_BYTES, BLOCK_SHIFT, AccessResult, AccessType,
                          HitLevel, LatencyBreakdown, MemoryReference)
    from .rng import RngFactory, derive_seed, stream
    from .server import FifoServer, ServerStats

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "_batchfold": ("PrivateState", "fold_private"),
    "batched": ("BatchedEngine",),
    "dynamic": ("AffinityRebinder", "MigratingEngine", "RandomRebinder"),
    "engine": ("Engine", "EngineResult", "MachineModel", "ThreadContext",
               "ThreadStats"),
    "factory": ("EngineRequest", "engine_modes", "make_engine",
                "resolve_mode"),
    "overcommit": ("OvercommitEngine",),
    "records": ("BLOCK_BYTES", "BLOCK_SHIFT", "AccessResult", "AccessType",
                "HitLevel", "LatencyBreakdown", "MemoryReference"),
    "rng": ("RngFactory", "derive_seed", "stream"),
    "server": ("FifoServer", "ServerStats"),
})
