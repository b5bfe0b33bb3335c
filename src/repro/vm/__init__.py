"""Virtualization layer: the hypervisor and virtual machines."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .hypervisor import Hypervisor, VirtualMachine

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "hypervisor": ("Hypervisor", "VirtualMachine"),
})
