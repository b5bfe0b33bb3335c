"""Simulation substrate: RNG streams, records, engines, engine factory."""

from ._batchfold import PrivateState, fold_private
from .batched import BatchedEngine
from .dynamic import AffinityRebinder, MigratingEngine, RandomRebinder
from .engine import Engine, EngineResult, MachineModel, ThreadContext, ThreadStats
from .factory import (
    EngineRequest,
    engine_modes,
    make_engine,
    register_engine,
    resolve_mode,
)
from .overcommit import OvercommitEngine
from .records import (
    BLOCK_BYTES,
    BLOCK_SHIFT,
    AccessResult,
    AccessType,
    HitLevel,
    LatencyBreakdown,
    MemoryReference,
)
from .rng import RngFactory, derive_seed, stream
from .server import FifoServer, ServerStats

__all__ = [
    "PrivateState",
    "fold_private",
    "BatchedEngine",
    "EngineRequest",
    "engine_modes",
    "make_engine",
    "register_engine",
    "resolve_mode",
    "AffinityRebinder",
    "MigratingEngine",
    "RandomRebinder",
    "Engine",
    "EngineResult",
    "MachineModel",
    "ThreadContext",
    "ThreadStats",
    "OvercommitEngine",
    "BLOCK_BYTES",
    "BLOCK_SHIFT",
    "AccessResult",
    "AccessType",
    "HitLevel",
    "LatencyBreakdown",
    "MemoryReference",
    "RngFactory",
    "derive_seed",
    "stream",
    "FifoServer",
    "ServerStats",
]
