"""The 16-core CMP timing model.

:class:`Chip` composes every substrate into the machine of Table III
and implements the :class:`repro.sim.engine.MachineModel` interface.
One call to :meth:`Chip.access` performs the *functional* state changes
(cache fills/evictions, directory transitions) and computes the
*timing* of the reference by walking it through:

1. the private L0/L1 stack of the issuing core;
2. the core's L2 domain — request over the mesh to the domain's home
   tile, bank queueing, the 6-cycle array access; an L1 miss that hits
   a peer L1's modified copy inside the domain becomes an intra-domain
   transfer (``HitLevel.L2_PEER``);
3. the striped directory at the block's home tile — including the
   directory-cache check that decides whether the entry itself costs a
   memory access;
4. a cache-to-cache transfer from the owning/sharing remote domain, or
   an off-chip access through the block's memory controller.

Latency is returned decomposed into cache / network / directory /
memory components so the analysis layer can attribute consolidation
slowdowns the way the paper does (cache thrashing vs. interconnect
congestion vs. memory pressure).
"""

from __future__ import annotations

from typing import Dict, List

from ..caches.hierarchy import CoreCacheStack, L2Domain
from ..caches.replacement import make_policy
from ..coherence.directory import OWNER_FIELD, OWNER_SHIFT, STATE_FIELD, Directory
from ..coherence.protocol import CoherenceController, DataSource
from ..coherence.states import DirState
from ..errors import ConfigurationError
from ..interconnect.analytical import AnalyticalMesh
from ..interconnect.topology import MeshTopology
from ..memory.controller import MemorySystem
from ..sim.records import AccessResult, HitLevel
from ..sim.server import FifoServer
from .config import MachineConfig
from .placement import DomainPlacement

__all__ = ["Chip"]

# the per-reference path binds the enum members once and builds its
# results with tuple.__new__, which skips the NamedTuple constructor's
# argument handling
_L0, _L1, _L2, _L2_PEER, _C2C_CLEAN, _C2C_DIRTY, _MEMORY = HitLevel
_FROM_MEMORY = DataSource.MEMORY
_FROM_DIRTY_CACHE = DataSource.C2C_DIRTY
_MODIFIED = int(DirState.MODIFIED)
_new = tuple.__new__


class Chip:
    """A configured CMP ready to serve memory references.

    Parameters
    ----------
    config:
        The machine description (Table III defaults).
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        side = config.mesh_side
        self.topology = MeshTopology(side, side)
        self.placement = DomainPlacement(config, self.topology)
        self.mesh = AnalyticalMesh(self.topology, hop_cycles=config.hop_cycles)
        self.stacks: List[CoreCacheStack] = [
            CoreCacheStack(core, config.l0_geometry, config.l1_geometry)
            for core in range(config.num_cores)
        ]
        l2_geometries = config.l2_domain_geometries()
        self.domains: List[L2Domain] = []
        for domain_id, members in enumerate(self.placement.domains):
            domain = L2Domain(
                domain_id,
                l2_geometries[domain_id],
                members,
                policy=make_policy(config.l2_replacement, seed=domain_id),
            )
            for core in members:
                domain.attach(self.stacks[core])
            self.domains.append(domain)
        self.directory = Directory(
            config.num_cores, dir_cache_entries=config.directory_cache_entries
        )
        self.coherence = CoherenceController(
            self.directory, num_domains=len(self.domains)
        )
        self.memory = MemorySystem.at_tiles(
            list(config.memory_tiles),
            base_latency=config.memory_latency,
            num_banks=config.memory_banks,
            bank_occupancy=config.memory_bank_occupancy,
            channel_occupancy=config.memory_channel_occupancy,
        )
        self.l2_servers = [
            FifoServer(name=f"l2/domain{d}", service_time=config.l2_service_time)
            for d in range(len(self.domains))
        ]
        self.vm_of_core: List[int] = [-1] * config.num_cores
        # optional observer of the L2 access stream (see set_l2_tap)
        self.l2_tap = None
        # chip-level event counters
        self.intra_domain_transfers = 0
        self.upgrade_transactions = 0
        self.accesses = 0
        # constants of the per-reference path, bound once; tables that
        # fill with use (the mesh's routes) stay lazy, since every cell
        # builds a chip and many never send most messages
        self._l0_latency = config.l0_geometry.latency
        self._l1_latency = config.l1_geometry.latency
        self._private_latency = self._l0_latency + self._l1_latency
        self._l2_latency = config.l2_latency
        self._dir_latency = config.directory_latency
        self._memory_latency = config.memory_latency
        self._control_flits = config.control_flits
        self._data_flits = config.data_flits
        self._domain_of = self.placement.domain_of
        self._home_tile = self.placement.home_tile
        # a private read hit's timing never varies: one immutable
        # result per level, shared by every such hit
        self._read_hits = (
            AccessResult(HitLevel.L0, self._l0_latency, self._l0_latency),
            AccessResult(HitLevel.L1, self._private_latency, self._private_latency),
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def bind_core_to_vm(self, core_id: int, vm_id: int) -> None:
        """Record which VM runs on a core (for occupancy accounting)."""
        if not 0 <= core_id < self.config.num_cores:
            raise ConfigurationError(f"core {core_id} out of range")
        self.vm_of_core[core_id] = vm_id

    def domain_of_core(self, core_id: int) -> int:
        return self.placement.domain_of[core_id]

    def set_l2_tap(self, tap) -> None:
        """Install (or remove, with ``None``) an L2 access observer.

        ``tap(domain_id, vm_id, block)`` is called for every reference
        that reaches a shared L2 domain (i.e. every private-cache
        miss), *before* the domain lookup.  Taps must be read-only with
        respect to machine state — they exist so QoS utility monitors
        (:mod:`repro.qos.sensors`) can shadow the access stream without
        perturbing the simulation; the cost when absent is one ``is not
        None`` test per L2 access.
        """
        self.l2_tap = tap

    # ------------------------------------------------------------------
    # the MachineModel interface
    # ------------------------------------------------------------------

    def access(self, core_id: int, block: int, is_write: bool, now: int) -> AccessResult:
        """Serve one reference; returns its decomposed timing."""
        self.accesses += 1
        stack = self.stacks[core_id]

        # ---- private L0/L1 -------------------------------------------
        lvl = stack.probe(block)
        if lvl is not None:
            if not is_write:
                return self._read_hits[lvl]
            cache = self._l0_latency if lvl == 0 else self._private_latency
            net, dir_cycles = self._write_permission(core_id, block, now + cache)
            stack.mark_dirty(block)
            return _new(AccessResult, (
                _L0 if lvl == 0 else _L1, cache + net + dir_cycles, cache,
                net, dir_cycles, 0))

        # ---- local L2 domain -----------------------------------------
        domain_id = self._domain_of[core_id]
        domain = self.domains[domain_id]
        if self.l2_tap is not None:
            self.l2_tap(domain_id, self.vm_of_core[core_id], block)
        home = self._home_tile[domain_id]
        mesh = self.mesh
        cache = self._private_latency
        net = mesh.traverse(core_id, home, self._control_flits, now + cache)
        cache += self.l2_servers[domain_id].request(now + cache + net)
        code = domain.lookup(block)
        cache += self._l2_latency
        t = now + cache + net
        if code is None:
            # ---- domain miss: directory protocol ---------------------
            return self._l2_miss(
                core_id, block, is_write, now, domain_id, domain, home,
                cache, net, t,
            )

        # ---- domain hit ----------------------------------------------
        owner_slot = domain.dirty_private_holder(block, stack.slot)
        if owner_slot is None:
            # data returns from the domain cache
            level = _L2
            net += mesh.traverse(home, core_id, self._data_flits, t)
        else:
            # a peer core in the domain holds the only modified copy:
            # forward the request to its L1 and transfer the data
            level = _L2_PEER
            owner_core = domain.core_ids[owner_slot]
            net += mesh.traverse(home, owner_core, self._control_flits, t)
            cache += self._l1_latency
            net += mesh.traverse(
                owner_core, core_id, self._data_flits, now + cache + net
            )
            if is_write:
                owner_stack = domain.stacks[owner_slot]
                if owner_stack is not None:
                    owner_stack.invalidate(block)
                domain.note_private_eviction(block, owner_slot)
                if domain.peek(block) is not None:
                    # the owner's dirty data lands in the domain's line
                    domain.writeback(block, owner_slot)
            else:
                domain.downgrade_owner(block, owner_slot)
            self.intra_domain_transfers += 1

        dir_cycles = 0
        if is_write:
            extra_net, dir_cycles = self._write_permission(
                core_id, block, now + cache + net
            )
            net += extra_net
        stack.fill(block, is_write)
        if domain.writebacks_to_memory:
            self._drain_writebacks(domain, now + cache + net)
        return _new(AccessResult,
                    (level, cache + net + dir_cycles, cache, net, dir_cycles, 0))

    def _l2_miss(
        self,
        core_id: int,
        block: int,
        is_write: bool,
        now: int,
        domain_id: int,
        domain: L2Domain,
        home: int,
        cache: int,
        net: int,
        t: int,
    ) -> AccessResult:
        mesh = self.mesh
        control_flits = self._control_flits
        source, provider, invalidate_domains, fill_dirty, memory_writeback = (
            self.coherence.fetch(block, domain_id, is_write))

        # request travels to the block's directory home tile
        dir_home = self.directory.home_tile(block)
        net += mesh.traverse(home, dir_home, control_flits, t)
        dir_cycles = self._dir_latency
        if not self.directory.cache_access(block):
            # the entry itself must be fetched from memory
            dir_cycles += self._memory_latency
        t = now + cache + net + dir_cycles

        mem_cycles = 0
        if source is _FROM_MEMORY:
            controller = self.memory.controller_for(block)
            net += mesh.traverse(dir_home, controller.tile, control_flits, t)
            t = now + cache + net + dir_cycles
            mem_cycles = controller.access(t, block)
            t += mem_cycles
            net += mesh.traverse(controller.tile, core_id, self._data_flits, t)
            level = _MEMORY
        else:
            provider_home = self._home_tile[provider]
            net += mesh.traverse(dir_home, provider_home, control_flits, t)
            cache += self.l2_servers[provider].request(
                now + cache + net + dir_cycles
            )
            cache += self._l2_latency
            if source is _FROM_DIRTY_CACHE:
                provider_domain = self.domains[provider]
                pslot = provider_domain.dirty_private_holder(block, -1)
                if pslot is not None:
                    # modified data sits in a provider-core L1
                    cache += self._l1_latency
                    if not is_write:
                        provider_domain.downgrade_owner(block, pslot)
                level = _C2C_DIRTY
            else:
                level = _C2C_CLEAN
            t = now + cache + net + dir_cycles
            net += mesh.traverse(provider_home, core_id, self._data_flits, t)

        # invalidations fan out from the directory home (writes)
        if invalidate_domains:
            net += self._invalidate(
                block, invalidate_domains, domain_id, dir_home, t
            )

        if memory_writeback:
            self.memory.controller_for(block).writeback(t, block)

        # fill the domain and the private stack
        stack = self.stacks[core_id]
        victims = domain.fill(
            block, fill_dirty or is_write, self.vm_of_core[core_id],
            stack.slot,
        )
        for victim_block, victim_dirty in victims:
            self.coherence.domain_evicted(victim_block, domain_id, victim_dirty)
        stack.fill(block, is_write)
        if domain.writebacks_to_memory:
            self._drain_writebacks(domain, t)

        latency = cache + net + dir_cycles + mem_cycles
        return _new(AccessResult,
                    (level, latency, cache, net, dir_cycles, mem_cycles))

    # ------------------------------------------------------------------
    # write permission (upgrades) and invalidations
    # ------------------------------------------------------------------

    def _write_permission(self, core_id: int, block: int, t: int) -> tuple:
        """Obtain global write permission for a locally-cached block.

        Returns ``(network_cycles, directory_cycles)``; both zero on
        the fast path (this domain already owns the block modified).
        """
        code = self.directory.peek(block)
        if code is None:
            # Locally cached data always has a directory entry; treat a
            # missing one as INVALID (first touch was a warm preload).
            return 0, 0
        domain_id = self._domain_of[core_id]
        if code & (STATE_FIELD | OWNER_FIELD) == _MODIFIED | (domain_id + 1) << OWNER_SHIFT:
            return 0, 0
        mesh = self.mesh
        control_flits = self._control_flits
        self.upgrade_transactions += 1
        dir_home = self.directory.home_tile(block)
        net = mesh.traverse(core_id, dir_home, control_flits, t)
        dir_cycles = self._dir_latency
        if not self.directory.cache_access(block):
            dir_cycles += self._memory_latency
        t2 = t + net + dir_cycles
        outcome = self.coherence.upgrade(block, domain_id)
        if outcome.invalidate_domains:
            net += self._invalidate(
                block, outcome.invalidate_domains, domain_id, dir_home, t2
            )
        if outcome.memory_writeback:
            self.memory.controller_for(block).writeback(t2, block)
        net += mesh.traverse(dir_home, core_id, control_flits, t2)
        return net, dir_cycles

    def _invalidate(
        self, block: int, victims: tuple, domain_id: int, dir_home: int, t: int
    ) -> int:
        """Invalidate ``block`` in the remote ``victims`` domains.

        The invalidations fan out in parallel from the directory home:
        returns the longest round trip, in network cycles.
        """
        inval_latency = 0
        for victim in victims:
            if victim == domain_id:
                continue
            leg = self.mesh.traverse(
                dir_home, self._home_tile[victim], self._control_flits, t
            )
            inval_latency = max(inval_latency, 2 * leg)
            self.domains[victim].invalidate(block)
        return inval_latency

    # ------------------------------------------------------------------

    def _drain_writebacks(self, domain: L2Domain, t: int) -> None:
        """Push queued dirty evictions into the memory controllers."""
        queue = domain.writebacks_to_memory
        for victim in queue:
            self.memory.controller_for(victim).writeback(t, victim)
        queue.clear()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def release(self) -> None:
        """Break the stack <-> domain reference cycles so reference
        counting frees a finished chip; it stays inspectable but cannot
        simulate further."""
        for stack in self.stacks:
            stack.domain = None

    def check_coherence_invariants(self) -> None:
        """Cross-check the directory against actual domain contents."""
        resident = [domain.resident_blocks() for domain in self.domains]
        self.coherence.check_invariants(resident=resident)

    def l2_snapshot_by_vm(self) -> List[Dict[int, int]]:
        """Per-domain resident-line counts per VM (Figure 13 raw data)."""
        return [domain.occupancy_by_vm() for domain in self.domains]

    def l2_resident_sets(self) -> List[set]:
        """Per-domain sets of resident blocks (Figure 12 raw data)."""
        return [domain.resident_blocks() for domain in self.domains]

    # ------------------------------------------------------------------
    # telemetry snapshots (read-only; see repro.obs.probes)
    # ------------------------------------------------------------------

    def queue_depths(self, now: int) -> Dict[str, float]:
        """Mean backlog of each shared-resource class at ``now``.

        Keys: ``l2`` (domain bank servers), ``memory`` (controller
        channel + banks), ``link`` (mesh links).  Depths are in service
        times (see :meth:`repro.sim.server.FifoServer.queue_depth`);
        strictly read-only so epoch probes cannot perturb timing.
        """
        l2 = sum(s.queue_depth(now) for s in self.l2_servers)
        return {
            "l2": l2 / len(self.l2_servers),
            "memory": self.memory.mean_queue_depth(now),
            "link": self.mesh.mean_link_queue_depth(now),
        }

    def l2_domain_queue_depths(self, now: int) -> List[float]:
        """Per-domain L2 bank backlog at ``now`` (read-only).

        The per-domain breakdown of :meth:`queue_depths`'s ``l2``
        entry; contention-aware schedulers rank domains with it.
        """
        return [s.queue_depth(now) for s in self.l2_servers]

    @property
    def inverse_core_speeds(self):
        """Per-core think-cycle multipliers, or ``None`` if homogeneous.

        The engines consult this once at startup; ``None`` keeps their
        exact legacy arithmetic (byte-identical homogeneous runs).
        """
        inverse = self.config.inverse_core_speeds()
        return inverse or None

    def l2_occupancy_share(self) -> Dict[int, float]:
        """Each VM's share of all resident L2 lines, chip-wide.

        Shares are of *resident* lines (they sum to 1 once the caches
        fill), keyed by VM id; lines without VM attribution are
        excluded.
        """
        totals: Dict[int, int] = {}
        resident = 0
        for domain in self.domains:
            for vm_id, lines in domain.occupancy_by_vm().items():
                resident += lines
                if vm_id >= 0:
                    totals[vm_id] = totals.get(vm_id, 0) + lines
        if resident == 0:
            return {vm: 0.0 for vm in totals}
        return {vm: lines / resident for vm, lines in totals.items()}

    def __repr__(self) -> str:
        return (
            f"Chip(cores={self.config.num_cores}, "
            f"sharing={self.config.sharing.name}, "
            f"domains={len(self.domains)})"
        )
