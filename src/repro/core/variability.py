"""Statistical simulation per Alameldeen & Wood (HPCA 2003).

Multithreaded runs are non-deterministic: tiny timing perturbations
change thread interleavings and can flip conclusions drawn from single
runs.  The paper adopts the statistical-simulation remedy — run each
configuration several times with perturbed initial conditions and
compare *distributions*.  Here the perturbation is the experiment seed
(which reseeds every workload generator and the random scheduler), and
:func:`replicate` reports mean, standard deviation, and a confidence
interval for any scalar extracted from a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence

from ..errors import ConfigurationError
from .experiment import ExperimentResult, ExperimentSpec, plan, run_experiment

__all__ = ["ReplicationSummary", "replicate", "seeds_for"]

#: two-sided Student-t 97.5% quantiles for small sample sizes
#: (index = degrees of freedom); falls back to the normal 1.96.
_T_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
}


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean and spread of one metric across replicated runs."""

    samples: tuple

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / self.n

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1)."""
        if self.n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((x - mu) ** 2 for x in self.samples) / (self.n - 1)
        )

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the 95% confidence interval on the mean."""
        if self.n < 2:
            return 0.0
        t = _T_975.get(self.n - 1, 1.96)
        return t * self.std / math.sqrt(self.n)

    @property
    def ci95(self) -> tuple:
        h = self.ci95_halfwidth
        return (self.mean - h, self.mean + h)

    @property
    def cov(self) -> float:
        """Coefficient of variation (std / mean)."""
        mu = self.mean
        return self.std / mu if mu else 0.0

    def overlaps(self, other: "ReplicationSummary") -> bool:
        """Whether the two 95% CIs overlap (a conservative
        'statistically indistinguishable' check)."""
        lo_a, hi_a = self.ci95
        lo_b, hi_b = other.ci95
        return lo_a <= hi_b and lo_b <= hi_a


def seeds_for(base_seed: int, n: int) -> List[int]:
    """Deterministic distinct seeds derived from a base seed."""
    if n <= 0:
        raise ConfigurationError("need at least one replication")
    return [base_seed + 1000003 * i for i in range(n)]


def replicate(
    spec: ExperimentSpec,
    extract: Callable[[ExperimentResult], float],
    n: int = 5,
    seeds: Sequence[int] = (),
) -> ReplicationSummary:
    """Run ``spec`` under ``n`` perturbed seeds and summarize a metric.

    Parameters
    ----------
    spec:
        Base experiment (its seed seeds the sequence).
    extract:
        Scalar metric puller, e.g.
        ``lambda r: r.vm_metrics[0].mean_miss_latency``.
    n:
        Number of replications when ``seeds`` is not given.
    seeds:
        Explicit seed list overriding ``n``.
    """
    spec = plan(spec).spec
    chosen = list(seeds) if seeds else seeds_for(spec.seed, n)
    samples = []
    for seed in chosen:
        result = run_experiment(replace(spec, seed=seed))
        samples.append(float(extract(result)))
    return ReplicationSummary(samples=tuple(samples))
