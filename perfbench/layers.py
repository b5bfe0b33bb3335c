"""Per-layer host-time accounting for traced benchmark runs.

A :class:`LayerClock` wraps the entry points of each simulator and
service layer (class attributes, patched for the life of one traced
run and restored afterwards) and accumulates *self* time per layer:
a wrapped call's wall time minus the part spent in nested wrapped
calls, so the layer shares of one run add up without double
counting.  Accounting is per thread, because the service runs its
HTTP loop and its simulations on different threads.

The wrappers are transparent (arguments and results pass through
unchanged), so a traced run simulates exactly what an untraced one
does; only its host time grows by the per-call bookkeeping.  End-to-end
metrics therefore come from untraced runs only.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from collections import defaultdict

__all__ = ["LAYERS", "LayerClock", "instrument"]

LAYERS = (
    "cell_setup",       # chip construction, VM launch, engine construction
    "workloads",        # reference-trace generation (repro.workloads)
    "caches_private",   # per-core L0/L1 stacks (reference) / private fold (batched)
    "caches_l2",        # L2 domains and their bank queues / batched L2 fold
    "coherence",        # directory and MOESI protocol / batched dir + write reconcile
    "interconnect",     # mesh traversals (reference engine)
    "memory",           # memory controllers (reference engine)
    "machine",          # the chip's access dispatch between those layers
    "engine",           # event loop / epoch loop self time
    "control",          # scenario, QoS and scheduler epoch hooks
    "store",            # result-store lookups and inserts
    "route",            # HTTP request routing, parsing and admission
)


class LayerClock:
    """Self-time and call counts per layer, accumulated per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accounts = []  # one (busy, calls, stack) per thread seen
        self._patches = []
        self.gc_seconds = 0.0
        self._gc_start = 0.0

    def _on_gc(self, phase: str, _info: dict) -> None:
        # collections run inside whichever layer allocated, so this
        # time overlaps the layer self times instead of adding to them
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start

    def _account(self):
        local = self._local
        account = getattr(local, "account", None)
        if account is None:
            account = local.account = (defaultdict(float), defaultdict(int), [])
            with self._lock:
                self._accounts.append(account)
        return account

    def timed(self, layer: str, fn):
        """``fn`` wrapped to charge its self time to ``layer``."""
        clock = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            busy, calls, stack = clock._account()
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                nested = stack.pop()
                busy[layer] += elapsed - nested
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def patch(self, owner, name: str, layer: str) -> None:
        """Replace ``owner.name`` by its timed wrapper until :meth:`restore`."""
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.timed(layer, original))

    def restore(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def busy(self) -> dict:
        """Seconds of self time per layer, summed over threads."""
        total = defaultdict(float)
        for busy, _calls, _stack in self._accounts:
            for layer, seconds in busy.items():
                total[layer] += seconds
        return total

    def calls(self) -> dict:
        total = defaultdict(int)
        for _busy, calls, _stack in self._accounts:
            for layer, count in calls.items():
                total[layer] += count
        return total


def instrument(clock: LayerClock) -> None:
    """Patch every layer entry point of the ``repro`` package."""
    from repro.caches.hierarchy import CoreCacheStack, L2Domain
    from repro.coherence.directory import Directory
    from repro.coherence.protocol import CoherenceController
    from repro.core.store import ResultStore
    from repro.interconnect.analytical import AnalyticalMesh
    from repro.machine.chip import Chip
    from repro.memory.controller import MemoryController
    from repro.qos.hook import QosHook
    from repro.scenarios.hook import ScenarioHook
    from repro.sched.hook import CompositeControl, SchedHook
    from repro.service.server import ServiceServer
    from repro.sim import batched
    from repro.sim.batched import BatchedEngine
    from repro.sim.dynamic import MigratingEngine
    from repro.sim.engine import Engine
    from repro.sim.overcommit import OvercommitEngine
    from repro.vm.hypervisor import Hypervisor
    from repro.workloads.generator import ThreadTrace

    plan = {
        "cell_setup": [
            (Hypervisor, "launch"),
            (Engine, "__init__"), (OvercommitEngine, "__init__"),
            (MigratingEngine, "__init__"), (BatchedEngine, "__init__"),
        ],
        "workloads": [(ThreadTrace, "__next__"), (ThreadTrace, "take_batch")],
        "caches_private": [
            (CoreCacheStack, "probe"), (CoreCacheStack, "fill"),
            (CoreCacheStack, "mark_dirty"), (CoreCacheStack, "invalidate"),
            (batched, "fold_private"),
        ],
        "caches_l2": [
            (L2Domain, "lookup"), (L2Domain, "peek"), (L2Domain, "fill"),
            (L2Domain, "invalidate"), (L2Domain, "dirty_private_holder"),
            (L2Domain, "downgrade_owner"),
            (L2Domain, "note_private_eviction"),
            (BatchedEngine, "_fold_l2"),
        ],
        "coherence": [
            (CoherenceController, "fetch"), (CoherenceController, "upgrade"),
            (CoherenceController, "domain_evicted"),
            (Directory, "cache_access"), (Directory, "peek"),
            (BatchedEngine, "_dir_access"),
            (BatchedEngine, "_reconcile_writes"),
        ],
        "interconnect": [(AnalyticalMesh, "traverse")],
        "memory": [
            (MemoryController, "access"), (MemoryController, "writeback"),
        ],
        "machine": [(Chip, "access")],
        "engine": [
            (Engine, "run"), (OvercommitEngine, "run"),
            (MigratingEngine, "run"), (BatchedEngine, "run"),
        ],
        "control": [
            (ScenarioHook, "on_step"), (QosHook, "on_step"),
            (SchedHook, "on_step"), (CompositeControl, "on_step"),
        ],
        "store": [(ResultStore, "get"), (ResultStore, "put")],
        "route": [(ServiceServer, "_route")],
    }
    for layer, targets in plan.items():
        for owner, name in targets:
            clock.patch(owner, name, layer)

    # The L2 bank queues are FifoServer instances, a class the memory
    # controllers and mesh links use too: time only the chip's L2 banks.
    original_init = Chip.__dict__["__init__"]

    @functools.wraps(original_init)
    def chip_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        for server in self.l2_servers:
            server.request = clock.timed("caches_l2", server.request)

    clock._patches.append((Chip, "__init__", original_init))
    Chip.__init__ = clock.timed("cell_setup", chip_init)
    gc.callbacks.append(clock._on_gc)
