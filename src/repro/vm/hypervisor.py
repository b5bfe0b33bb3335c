"""The hypervisor: virtual machines, memory partitioning, thread binding.

The paper's methodology (Section IV-A) isolates workloads through
virtual machines: each workload gets a statically-assigned private
portion of physical memory and its threads are bound to physical cores
at startup, where they stay for the whole run.  :class:`Hypervisor`
reproduces exactly that: it carves disjoint physical-block partitions,
instantiates each workload's generators inside its partition, binds
threads to the cores chosen by the scheduling policy, and hands the
resulting :class:`~repro.sim.engine.ThreadContext` list to the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..errors import ConfigurationError, SchedulingError
from ..machine.chip import Chip
from ..sim.engine import ThreadContext
from ..sim.rng import RngFactory
from ..workloads.generator import WorkloadInstance
from ..workloads.profile import WorkloadProfile

__all__ = ["VirtualMachine", "Hypervisor"]

#: guard gap between consecutive VM partitions, in blocks.  Prevents
#: two VMs from ever mapping to adjacent blocks (belt and braces on top
#: of exact partition sizing).
PARTITION_GUARD_BLOCKS = 1024


@dataclass
class VirtualMachine:
    """One guest: a workload instance plus its physical resources."""

    vm_id: int
    instance: WorkloadInstance
    base_block: int
    partition_blocks: int
    cores: List[int] = field(default_factory=list)

    @property
    def workload_name(self) -> str:
        return self.instance.profile.name

    @property
    def num_threads(self) -> int:
        return self.instance.num_threads

    def owns_block(self, block: int) -> bool:
        return self.base_block <= block < self.base_block + self.partition_blocks


class Hypervisor:
    """Creates VMs on a chip and binds their threads to cores.

    Parameters
    ----------
    chip:
        The machine to consolidate onto.
    rng_factory:
        Source of per-thread random streams.
    """

    def __init__(self, chip: Chip, rng_factory: RngFactory):
        self.chip = chip
        self.rng_factory = rng_factory
        self.vms: List[VirtualMachine] = []
        self._next_block = 0

    def launch(
        self,
        profiles: Sequence[WorkloadProfile],
        assignments: Sequence[Sequence[int]],
        measured_refs: int,
        warmup_refs: int = 0,
        batch_size: int = 4096,
        slots_per_core: int = 1,
        start_offsets: Sequence[int] = (),
        stop_times: Sequence = (),
        vm_phases: Sequence = (),
    ) -> List[ThreadContext]:
        """Create one VM per profile and return all thread contexts.

        Parameters
        ----------
        profiles:
            One profile per VM (replicated instances appear multiple
            times, e.g. three TPC-W entries for Mix 1).
        assignments:
            ``assignments[i][j]`` is the physical core for thread ``j``
            of VM ``i`` — produced by a scheduling policy.
        measured_refs, warmup_refs:
            Per-thread measurement window (see the engine).
        slots_per_core:
            Thread contexts a core may host.  1 (the paper's
            methodology: never over-committed) unless the run targets
            the Section VII over-commit study, in which case the
            contexts must be driven by
            :class:`repro.sim.overcommit.OvercommitEngine`.
        start_offsets:
            Optional per-VM start times in cycles (the paper's
            workload-start-time methodological variable).
        stop_times:
            Optional per-VM departure times in cycles (``None`` for
            "runs to completion"): VM churn for the scheduling layer.
        vm_phases:
            Optional cyclic phase plans for the generators, one per VM
            (``None`` entries stay steady).
        """
        if vm_phases and len(vm_phases) != len(profiles):
            raise ConfigurationError(
                f"{len(vm_phases)} per-VM phase plans for "
                f"{len(profiles)} VMs"
            )
        if len(profiles) != len(assignments):
            raise ConfigurationError(
                f"{len(profiles)} profiles but {len(assignments)} assignments"
            )
        if slots_per_core <= 0:
            raise ConfigurationError("slots_per_core must be positive")
        if start_offsets and len(start_offsets) != len(profiles):
            raise ConfigurationError(
                f"{len(start_offsets)} start offsets for {len(profiles)} VMs"
            )
        if stop_times and len(stop_times) != len(profiles):
            raise ConfigurationError(
                f"{len(stop_times)} stop times for {len(profiles)} VMs"
            )
        total_threads = sum(len(cores) for cores in assignments)
        capacity = self.chip.config.num_cores * slots_per_core
        if total_threads > capacity:
            raise SchedulingError(
                f"{total_threads} threads exceed {capacity} thread slots "
                f"({slots_per_core} per core)"
            )
        slot_use: dict = {}
        for cores in assignments:
            for core in cores:
                slot_use[core] = slot_use.get(core, 0) + 1
                if slot_use[core] > slots_per_core:
                    raise SchedulingError(
                        f"core {core} assigned {slot_use[core]} threads "
                        f"(limit {slots_per_core})"
                    )

        contexts: List[ThreadContext] = []
        thread_id = 0
        for vm_index, (profile, cores) in enumerate(zip(profiles, assignments)):
            if len(cores) != profile.threads:
                raise SchedulingError(
                    f"VM {vm_index} ({profile.name}) has {profile.threads} "
                    f"threads but {len(cores)} cores were assigned"
                )
            vm_id = len(self.vms)
            base = self._next_block
            instance = WorkloadInstance(
                profile,
                instance_id=vm_id,
                base_block=base,
                rng_stream=self.rng_factory.stream,
                batch_size=batch_size,
                phases=vm_phases[vm_index] if vm_phases else None,
            )
            vm = VirtualMachine(
                vm_id=vm_id,
                instance=instance,
                base_block=base,
                partition_blocks=profile.partition_blocks,
                cores=list(cores),
            )
            self.vms.append(vm)
            self._next_block = base + profile.partition_blocks + PARTITION_GUARD_BLOCKS
            offset = start_offsets[vm_index] if start_offsets else 0
            stop = stop_times[vm_index] if stop_times else None
            for thread_index, core in enumerate(cores):
                self.chip.bind_core_to_vm(core, vm_id)
                contexts.append(
                    ThreadContext(
                        thread_id=thread_id,
                        vm_id=vm_id,
                        core_id=core,
                        references=instance.trace(thread_index),
                        measured_refs=measured_refs,
                        warmup_refs=warmup_refs,
                        start_time=offset,
                        stop_time=stop,
                    )
                )
                thread_id += 1
        return contexts

    def rebind_thread(
        self,
        context: ThreadContext,
        core: int,
        previous: int = -1,
        bind_core: bool = True,
    ) -> None:
        """Move a launched thread's binding to another physical core.

        The paper's methodology binds statically; this exists for the
        QoS layer (:mod:`repro.qos`), whose feedback controller may
        migrate a waiting thread on an over-committed machine.  Updates
        the VM's core list and the context's binding; pass the thread's
        ``previous`` core explicitly when the caller (the engine's
        run-queue actuator) already rewrote ``context.core_id``.
        ``bind_core=False`` skips the chip's core→VM attribution update
        (used when the thread joined a busy queue whose active thread
        belongs to another VM).
        """
        if not 0 <= core < self.chip.config.num_cores:
            raise SchedulingError(
                f"core {core} out of range for a "
                f"{self.chip.config.num_cores}-core chip"
            )
        vm = self.vms[context.vm_id]
        old = context.core_id if previous < 0 else previous
        try:
            vm.cores.remove(old)
        except ValueError:
            pass
        vm.cores.append(core)
        context.core_id = core
        if bind_core:
            self.chip.bind_core_to_vm(core, context.vm_id)

    def vm_of_block(self, block: int) -> int:
        """VM owning a physical block, or -1 (for analysis code)."""
        for vm in self.vms:
            if vm.owns_block(block):
                return vm.vm_id
        return -1

    def check_isolation(self) -> None:
        """Assert that no two VM partitions overlap."""
        spans = sorted(
            (vm.base_block, vm.base_block + vm.partition_blocks, vm.vm_id)
            for vm in self.vms
        )
        for (start_a, end_a, id_a), (start_b, _end_b, id_b) in zip(spans, spans[1:]):
            if start_b < end_a:
                raise ConfigurationError(
                    f"VM {id_a} and VM {id_b} partitions overlap"
                )
