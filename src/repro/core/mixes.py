"""Workload mixes (Table IV).

The paper fills the 16-core machine with four 4-thread workload
instances — never over-committed — in nine heterogeneous and four
homogeneous combinations.  SPECweb only appears in its homogeneous mix
(Mix D) because of a workload-driver limitation the paper reports; we
keep the same experiment matrix for fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from ..workloads.library import get_profile
from ..workloads.profile import WorkloadProfile

__all__ = [
    "Mix",
    "MIXES",
    "HETEROGENEOUS_MIXES",
    "HOMOGENEOUS_MIXES",
    "get_mix",
    "isolated_mix",
]


@dataclass(frozen=True)
class Mix:
    """A consolidated workload combination.

    Attributes
    ----------
    name:
        Table IV's label (``"mix1"`` ... ``"mix9"``, ``"mixA"`` ...
        ``"mixD"``) or ``"iso-<workload>"`` for isolation runs.
    components:
        ``(workload_name, instance_count)`` pairs.
    """

    name: str
    components: Tuple[Tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigurationError("a mix needs at least one component")
        for workload, count in self.components:
            if count <= 0:
                raise ConfigurationError(
                    f"component {workload!r} has non-positive count {count}"
                )
            get_profile(workload)  # validates the name

    @property
    def is_homogeneous(self) -> bool:
        return len(self.components) == 1

    @property
    def num_instances(self) -> int:
        return sum(count for _, count in self.components)

    def instance_names(self) -> List[str]:
        """Workload name of every instance, expanded in VM order."""
        names: List[str] = []
        for workload, count in self.components:
            names.extend([workload] * count)
        return names

    def profiles(self) -> List[WorkloadProfile]:
        """Profiles of every instance, expanded in VM order."""
        return [get_profile(name) for name in self.instance_names()]

    def describe(self) -> str:
        """Table IV's notation, e.g. ``"TPC-W (3) & TPC-H (1)"``."""
        pretty = {
            "tpcw": "TPC-W",
            "tpch": "TPC-H",
            "specjbb": "SPECjbb",
            "specweb": "SPECweb",
        }
        return " & ".join(
            f"{pretty.get(w, w)} ({count})" for w, count in self.components
        )


HETEROGENEOUS_MIXES: Dict[str, Mix] = {
    "mix1": Mix("mix1", (("tpcw", 3), ("tpch", 1))),
    "mix2": Mix("mix2", (("tpcw", 2), ("tpch", 2))),
    "mix3": Mix("mix3", (("tpcw", 1), ("tpch", 3))),
    "mix4": Mix("mix4", (("specjbb", 3), ("tpch", 1))),
    "mix5": Mix("mix5", (("specjbb", 2), ("tpch", 2))),
    "mix6": Mix("mix6", (("specjbb", 1), ("tpch", 3))),
    "mix7": Mix("mix7", (("specjbb", 3), ("tpcw", 1))),
    "mix8": Mix("mix8", (("specjbb", 2), ("tpcw", 2))),
    "mix9": Mix("mix9", (("specjbb", 1), ("tpcw", 3))),
}
"""Table IV's heterogeneous mixes 1-9."""

HOMOGENEOUS_MIXES: Dict[str, Mix] = {
    "mixA": Mix("mixA", (("tpcw", 4),)),
    "mixB": Mix("mixB", (("tpch", 4),)),
    "mixC": Mix("mixC", (("specjbb", 4),)),
    "mixD": Mix("mixD", (("specweb", 4),)),
}
"""Table IV's homogeneous mixes A-D."""

MIXES: Dict[str, Mix] = {**HETEROGENEOUS_MIXES, **HOMOGENEOUS_MIXES}
"""All of Table IV, keyed by mix name."""

_MIXES_BY_KEY = {name.lower(): mix for name, mix in MIXES.items()}


_CUSTOM_MIXES: Dict[str, Mix] = {}


def register_mix(mix: Mix, overwrite: bool = False) -> Mix:
    """Register a user-defined mix so experiment specs can name it.

    Table IV names cannot be shadowed.  Registration is how the
    future-work studies (bigger machines, different instance counts)
    define their combinations without touching the paper's matrix.
    """
    key = mix.name.lower()
    if key in _MIXES_BY_KEY:
        raise ConfigurationError(
            f"mix name {mix.name!r} collides with a Table IV mix"
        )
    if not overwrite and key in _CUSTOM_MIXES:
        raise ConfigurationError(
            f"custom mix {mix.name!r} already registered "
            "(pass overwrite=True to replace it)"
        )
    _CUSTOM_MIXES[key] = mix
    return mix


def get_mix(name: str) -> Mix:
    """Look up a Table IV or registered custom mix (case-insensitive)."""
    key = name.strip().lower()
    mix = _MIXES_BY_KEY.get(key) or _CUSTOM_MIXES.get(key)
    if mix is not None:
        return mix
    raise ConfigurationError(
        f"unknown mix {name!r}; available: "
        f"{sorted(MIXES) + sorted(_CUSTOM_MIXES)}"
    )


def isolated_mix(workload: str) -> Mix:
    """A single-instance mix for isolation runs (Section V-A)."""
    get_profile(workload)
    return Mix(f"iso-{workload}", ((workload, 1),))
