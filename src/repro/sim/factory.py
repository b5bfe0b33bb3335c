"""Unified engine construction: one entry point, keyed by *engine
mode*:

``"reference"``
    The event-driven engines — byte-identical to the historical
    behaviour, including the over-commit and migrating variants.
``"batched"``
    The epoch-folded :class:`~repro.sim.batched.BatchedEngine`
    (single-slot, statically-bound runs only).
``"auto"``
    Resolves to ``"batched"`` when the batched engine provides every
    capability the request needs, else ``"reference"``.

Every build ends in one check (see :mod:`repro.control`): an
engine that does not provide a capability the request needs raises
:class:`~repro.errors.ConfigurationError` instead of ignoring an input.

Stability note: :func:`make_engine`, :class:`EngineRequest`, and the
mode names above are public API — downstream code may rely on them;
changes go through a deprecation cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, FrozenSet, Optional, Sequence

from ..control import (ASYM_L2, CORE_SPEEDS, EPOCH_PROBE, MIGRATE, REQUEUE,
                       RETIRE)
from ..errors import ConfigurationError
from .batched import DEFAULT_EPOCH_REFS, BatchedEngine
from .engine import Engine

__all__ = [
    "EngineRequest",
    "make_engine",
    "resolve_mode",
    "request_needs",
    "run_needs",
    "engine_class",
    "check_provides",
    "engine_modes",
]


@dataclass
class EngineRequest:
    """Everything an engine builder may need.

    Attributes
    ----------
    machine:
        The chip (or a machine-model stand-in for tests).
    threads:
        Thread contexts to run.
    control:
        Optional :class:`~repro.control.Control` hook; builders wire it
        into the engine and then hand it the engine via
        ``bind_actuator``.
    probe:
        Optional epoch probe (needs the ``epoch probe`` capability:
        reference single-slot and batched only).
    slots_per_core:
        >1 selects the over-commit engine on the reference path.
    rebinder, rebind_interval:
        Non-``None`` rebinder selects the migrating engine on the
        reference path.
    epoch_refs:
        Folding epoch of the batched engine.
    """

    machine: object
    threads: Sequence = field(default_factory=list)
    control: Optional[object] = None
    probe: Optional[object] = None
    slots_per_core: int = 1
    rebinder: Optional[object] = None
    rebind_interval: int = 100_000
    epoch_refs: int = DEFAULT_EPOCH_REFS


def run_needs(config, slots_per_core: int = 1, migrates: bool = False,
              departs: bool = False, probe: bool = False,
              control_needs: AbstractSet[str] = frozenset()) -> FrozenSet[str]:
    """Capabilities (see :mod:`repro.control`) a run needs: those of its
    shape on ``config`` (``None`` for a machine stand-in) plus its
    control hooks' declared ``needs``.  The one derivation behind both
    :func:`repro.core.experiment.plan` and :func:`make_engine`."""
    needs = {need for present, need in (
        (slots_per_core > 1, REQUEUE), (migrates, MIGRATE),
        (probe, EPOCH_PROBE), (departs, RETIRE),
        (config is not None and config.core_speeds, CORE_SPEEDS),
        (config is not None and config.l2_domain_assoc, ASYM_L2)) if present}
    return frozenset(needs.union(control_needs))


def request_needs(request: EngineRequest) -> FrozenSet[str]:
    """:func:`run_needs` of a built request."""
    return run_needs(
        getattr(request.machine, "config", None), request.slots_per_core,
        migrates=request.rebinder is not None,
        departs=any(getattr(t, "stop_time", None) is not None
                    for t in request.threads),
        probe=request.probe is not None,
        control_needs=(request.control.needs
                       if request.control is not None else frozenset()))


def check_provides(cls, needs: AbstractSet[str]) -> None:
    """Refuse ``needs`` that engine class ``cls`` does not provide."""
    missing = needs - cls.provides
    if missing:
        raise ConfigurationError(
            f"engine {cls.__name__} does not provide "
            f"{', '.join(sorted(missing))}, which this run needs; pick an "
            "engine_mode that does (docs/engines.md) or drop those inputs"
        )


def _construct(cls, request: EngineRequest, **kwargs):
    """Build ``cls`` for ``request`` after the one capability check:
    the engine must provide every capability the request needs."""
    check_provides(cls, request_needs(request))
    engine = cls(request.machine, request.threads, control=request.control,
                 **kwargs)
    if request.control is not None:
        request.control.bind_actuator(engine)
    return engine


def _reference_class(slots_per_core: int, migrates: bool):
    # the migrating and over-commit engines are imported only by the
    # runs that use them
    if migrates:
        from .dynamic import MigratingEngine

        return MigratingEngine
    if slots_per_core > 1:
        from .overcommit import OvercommitEngine

        return OvercommitEngine
    return Engine


def _build_reference(request: EngineRequest):
    migrates = request.rebinder is not None
    cls = _reference_class(request.slots_per_core, migrates)
    if migrates:
        return _construct(cls, request, rebinder=request.rebinder,
                          interval=request.rebind_interval)
    if request.slots_per_core > 1:
        return _construct(cls, request)
    return _construct(cls, request, probe=request.probe)


def _build_batched(request: EngineRequest):
    return _construct(BatchedEngine, request, probe=request.probe,
                      epoch_refs=request.epoch_refs)


_MODES = ("auto", "batched", "reference")


def engine_modes() -> list:
    """Selectable modes, ``"auto"`` first."""
    return list(_MODES)


def resolve_mode(mode: str, needs: AbstractSet[str] = frozenset()) -> str:
    """Resolve ``"auto"`` to a concrete mode for a run's needs.

    ``"auto"`` picks ``"batched"`` only when the batched engine
    provides every capability in ``needs`` (see :mod:`repro.control`:
    no over-commit, rebinding, scheduler, scenario, VM churn or
    heterogeneous chip).  An explicit ``"batched"`` passes through
    unchanged; requesting it for needs it lacks raises at build time.
    """
    mode = (mode or "auto").strip().lower()
    if mode == "auto":
        return "batched" if needs <= BatchedEngine.provides else "reference"
    if mode not in _MODES:
        raise ConfigurationError(
            f"unknown engine mode {mode!r}; "
            f"choose one of {', '.join(_MODES)}"
        )
    return mode


def engine_class(mode: str, slots_per_core: int = 1, migrates: bool = False):
    """The engine class a concrete ``mode`` builds for a run shape."""
    if mode == "batched":
        return BatchedEngine
    return _reference_class(slots_per_core, migrates)


def make_engine(request: EngineRequest, mode: str = "auto"):
    """Build an engine for ``request`` in the given mode.

    The single construction path for every simulation engine: the
    experiment runner, tests, and benches all come through here.  An
    engine that lacks a capability the request needs raises
    :class:`~repro.errors.ConfigurationError` naming it.
    """
    if resolve_mode(mode, request_needs(request)) == "batched":
        return _build_batched(request)
    return _build_reference(request)
