"""Declarative experiment suites.

An :class:`ExperimentSuite` names a whole grid of experiments: a base
:class:`~repro.core.experiment.ExperimentSpec` plus ordered axes of
spec-field overrides, under a label.  A :class:`SuiteRunner` executes a
suite through a :class:`~repro.core.executor.SweepExecutor` and returns
a :class:`SuiteResult` keyed by axis-value tuples, with per-cell
wall-time and failure accounting.

The paper's canonical grids are available as canned suites —
:func:`sharing_policy_suite` (sharing degree x scheduler, the grid
behind Figures 5-13) and :func:`mixes_suite` (one cell per Table IV
mix) — and by name through :data:`SUITES` / :func:`get_suite`, which
is what ``repro suite <name>`` on the command line resolves against.

Example
-------
>>> from repro import ExperimentSpec, ExperimentSuite, SuiteRunner
>>> suite = ExperimentSuite.build(
...     "small-grid", ExperimentSpec(mix="mix5", measured_refs=1000),
...     sharing=["private", "shared-4"], policy=["rr", "affinity"])
>>> outcome = SuiteRunner(jobs=4).run(suite)       # doctest: +SKIP
>>> outcome.results[("private", "rr")].final_time  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .executor import CellOutcome, ProgressCallback, SweepExecutor
from .experiment import ALL_SHARINGS, ExperimentResult, ExperimentSpec

__all__ = [
    "ExperimentSuite",
    "SuiteResult",
    "SuiteRunner",
    "sharing_policy_suite",
    "mixes_suite",
    "qos_suite",
    "sched_suite",
    "SUITES",
    "suite_names",
    "get_suite",
]


@dataclass(frozen=True)
class ExperimentSuite:
    """A named grid: base spec x ordered axes of field overrides."""

    name: str
    base: ExperimentSpec
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]
    description: str = ""

    @classmethod
    def build(
        cls,
        name: str,
        base: ExperimentSpec,
        description: str = "",
        **axes: Sequence,
    ) -> "ExperimentSuite":
        """Validating constructor; axes keep keyword order."""
        if not axes:
            raise ConfigurationError(
                f"suite {name!r} needs at least one axis"
            )
        valid = set(ExperimentSpec.__dataclass_fields__)
        frozen_axes = []
        for axis_name, values in axes.items():
            if axis_name not in valid:
                raise ConfigurationError(
                    f"{axis_name!r} is not an ExperimentSpec field; "
                    f"valid fields: {sorted(valid)}"
                )
            values = tuple(values)
            if not values:
                raise ConfigurationError(
                    f"axis {axis_name!r} of suite {name!r} is empty"
                )
            frozen_axes.append((axis_name, values))
        return cls(name=name, base=base, axes=tuple(frozen_axes),
                   description=description)

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(axis_name for axis_name, _values in self.axes)

    def __len__(self) -> int:
        """Number of grid cells."""
        size = 1
        for _axis_name, values in self.axes:
            size *= len(values)
        return size

    def cells(self) -> List[Tuple[tuple, ExperimentSpec]]:
        """Every ``(key, spec)`` cell in cartesian (row-major) order."""
        out: List[Tuple[tuple, ExperimentSpec]] = []

        def recurse(prefix: tuple, remaining: int) -> None:
            if remaining == len(self.axes):
                overrides = dict(zip(self.axis_names, prefix))
                out.append((prefix, replace(self.base, **overrides)))
                return
            _axis_name, values = self.axes[remaining]
            for value in values:
                recurse(prefix + (value,), remaining + 1)

        recurse((), 0)
        return out


@dataclass
class SuiteResult:
    """Everything a suite run produced, keyed by axis-value tuples."""

    suite: ExperimentSuite
    outcomes: Dict[tuple, CellOutcome]

    @property
    def results(self) -> Dict[tuple, ExperimentResult]:
        """Successful cells only."""
        return {
            key: outcome.result
            for key, outcome in self.outcomes.items()
            if outcome.ok
        }

    @property
    def failures(self) -> Dict[tuple, str]:
        """Tracebacks of failed cells (empty when everything ran)."""
        return {
            key: outcome.error
            for key, outcome in self.outcomes.items()
            if not outcome.ok
        }

    @property
    def cached_cells(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.from_cache)

    @property
    def total_wall_time(self) -> float:
        """Summed per-cell simulation time (cache hits contribute 0)."""
        return sum(o.wall_time for o in self.outcomes.values()
                   if not o.from_cache)

    def result(self, *key) -> ExperimentResult:
        """One cell's result; raises if that cell failed."""
        outcome = self.outcomes[tuple(key)]
        if not outcome.ok:
            raise ConfigurationError(
                f"suite cell {tuple(key)!r} failed:\n{outcome.error}"
            )
        return outcome.result

    def grid(
        self, metric: Callable[[ExperimentResult], float]
    ) -> Dict[tuple, float]:
        """Apply a scalar extractor to every successful cell."""
        return {key: float(metric(result))
                for key, result in self.results.items()}


class SuiteRunner:
    """Execute suites through a (possibly parallel) executor.

    Either pass a preconfigured :class:`SweepExecutor`, or let the
    runner build one from ``jobs`` / ``store`` / ``progress``.
    """

    def __init__(
        self,
        executor: Optional[SweepExecutor] = None,
        *,
        jobs: int = 1,
        store=None,
        progress: Optional[ProgressCallback] = None,
    ):
        self.executor = executor or SweepExecutor(
            jobs=jobs, store=store, progress=progress
        )

    def run(
        self,
        suite: ExperimentSuite,
        executor: Optional[SweepExecutor] = None,
    ) -> SuiteResult:
        executor = executor or self.executor
        outcomes = executor.run(suite.cells())
        return SuiteResult(
            suite=suite,
            outcomes={outcome.key: outcome for outcome in outcomes},
        )


# ----------------------------------------------------------------------
# canned suites (the paper's grids)
# ----------------------------------------------------------------------

def sharing_policy_suite(
    mix: str = "mix5",
    sharings: Sequence[str] = None,
    policies: Sequence[str] = ("rr", "affinity"),
    base: Optional[ExperimentSpec] = None,
) -> ExperimentSuite:
    """The paper's canonical grid: L2 sharing degree x scheduler."""
    sharings = ALL_SHARINGS if sharings is None else sharings
    base = base or ExperimentSpec(mix=mix)
    base = replace(base, mix=mix)
    return ExperimentSuite.build(
        f"sharing-policy/{mix}", base,
        description=(
            "Sharing degree x scheduling policy for one mix "
            "(the grid behind Figs. 5-13)"
        ),
        sharing=list(sharings), policy=list(policies),
    )


def mixes_suite(
    mixes: Iterable[str] = None,
    base: Optional[ExperimentSpec] = None,
) -> ExperimentSuite:
    """One cell per Table IV mix, other parameters held at ``base``."""
    from .mixes import HETEROGENEOUS_MIXES

    mixes = list(HETEROGENEOUS_MIXES) if mixes is None else list(mixes)
    base = base or ExperimentSpec(mix=mixes[0])
    return ExperimentSuite.build(
        "mixes", base,
        description="One experiment per workload mix",
        mix=mixes,
    )


def qos_suite(
    mix: str = "mix5",
    policies: Sequence[str] = None,
    base: Optional[ExperimentSpec] = None,
) -> ExperimentSuite:
    """One cell per cache-QoS policy on a fully shared L2.

    The empty-string cell is the uncontrolled run every policy is
    compared against; ``target-slowdown`` is omitted by default because
    it needs an explicit ``qos_target``.
    """
    if policies is None:
        policies = ["", "static-equal", "missrate-prop", "ucp"]
    base = base or ExperimentSpec(mix=mix)
    # a fully shared L2 puts every VM in one domain, so the policies
    # have capacity to arbitrate; shared-4 + affinity would give each
    # VM a private domain and reduce every policy to a no-op
    base = replace(base, mix=mix, sharing="shared")
    return ExperimentSuite.build(
        f"qos/{mix}", base,
        description=(
            "Cache-QoS policy comparison on a fully shared L2 "
            "('' = uncontrolled)"
        ),
        qos_policy=list(policies),
    )


def sched_suite(
    mix: str = "mix5",
    policies: Sequence[str] = None,
    base: Optional[ExperimentSpec] = None,
) -> ExperimentSuite:
    """One cell per scheduling policy on a fully shared L2.

    The empty-string cell is the legacy statically-placed run every
    adaptive policy is compared against (``"static"`` would add the
    hook but never migrate — byte-identical results, useful only for
    overhead measurements).  ``hetero`` is omitted by default because
    it is a no-op on a homogeneous machine; add it with an explicit
    ``core_speeds`` in ``base``.
    """
    if policies is None:
        policies = ["", "contention", "adaptive"]
    base = base or ExperimentSpec(mix=mix)
    # fully shared L2 for the same reason as qos_suite: every VM in
    # one domain, so contention signals have something to measure
    base = replace(base, mix=mix, sharing="shared")
    return ExperimentSuite.build(
        f"sched/{mix}", base,
        description=(
            "Scheduling-policy comparison on a fully shared L2 "
            "('' = static legacy run)"
        ),
        sched_policy=list(policies),
    )


SUITES: Dict[str, Callable[..., ExperimentSuite]] = {
    "sharing-policy": sharing_policy_suite,
    "mixes": mixes_suite,
    "qos": qos_suite,
    "sched": sched_suite,
}
"""Canned suite factories addressable by name (``repro suite <name>``)."""


def suite_names() -> List[str]:
    return sorted(SUITES)


def get_suite(name: str, **params) -> ExperimentSuite:
    """Build a canned suite by registry name."""
    try:
        factory = SUITES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown suite {name!r}; available: {', '.join(suite_names())}"
        ) from None
    return factory(**params)
