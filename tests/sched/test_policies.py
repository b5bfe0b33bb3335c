"""Unit tests: policy registry, decisions on synthetic windows,
and the heterogeneous-machine spec parsers."""

import pytest

from repro.errors import ConfigurationError
from repro.machine.config import (
    MachineConfig,
    parse_core_speeds,
    parse_domain_assoc,
)
from repro.obs.probes import Delta, SensingWindow
from repro.sched import (
    SCHED_POLICY_NAMES,
    AdaptiveAllocation,
    ContentionAwareMigration,
    HeteroAware,
    SchedView,
    StaticPlacement,
    make_sched_policy,
)


def _delta(tid, core, vm=0, refs=100, l1=20, l2=10, lat=4000, think=100):
    return Delta(
        vm, refs=refs, l1_misses=l1, l2_misses=l2, miss_latency_cycles=lat,
        think_cycles=think, issued=refs, thread_id=tid, core_id=core,
    )


def _window(threads, queues=None, domain_of_core=None, now=10_000):
    deltas = {t.thread_id: t for t in threads}
    return SensingWindow(
        now, threads=deltas, queues=queues, domain_of_core=domain_of_core,
    )


# -- registry ----------------------------------------------------------


def test_registry_names():
    assert SCHED_POLICY_NAMES == ("adaptive", "contention", "hetero",
                                  "static")


@pytest.mark.parametrize("name,cls", [
    ("static", StaticPlacement),
    ("static-placement", StaticPlacement),
    ("contention", ContentionAwareMigration),
    ("contention-aware-migration", ContentionAwareMigration),
    ("adaptive", AdaptiveAllocation),
    ("adaptive_allocation", AdaptiveAllocation),
    ("hetero", HeteroAware),
    ("heterogeneous", HeteroAware),
])
def test_make_sched_policy_resolves_names_and_aliases(name, cls):
    assert isinstance(make_sched_policy(name), cls)


def test_make_sched_policy_rejects_unknown():
    with pytest.raises(ConfigurationError, match="adaptive"):
        make_sched_policy("nope")


# -- static ------------------------------------------------------------


def test_static_never_migrates():
    policy = StaticPlacement()
    policy.attach(SchedView(num_cores=4, slots_per_core=1,
                            domain_of_core=None, inverse_speeds=None,
                            rng=None))
    window = _window([_delta(0, 0), _delta(1, 1)])
    assert not policy.decide(window)


# -- adaptive ----------------------------------------------------------


def test_adaptive_drains_deep_queue_to_idle_core():
    policy = AdaptiveAllocation()
    policy.attach(SchedView(num_cores=4, slots_per_core=2,
                            domain_of_core=None, inverse_speeds=None,
                            rng=None))
    # three threads stacked on core 0, core 1 busy, cores 2-3 idle
    queues = {0: [0, 1, 2], 1: [3]}
    window = _window([_delta(i, 0 if i < 3 else 1) for i in range(4)],
                     queues=queues)
    decision = policy.decide(window)
    assert decision.migrations
    # only waiting threads move, never the head of a queue
    assert 0 not in decision.migrations
    assert set(decision.migrations.values()) <= {2, 3}


def test_adaptive_is_noop_when_balanced():
    policy = AdaptiveAllocation()
    policy.attach(SchedView(num_cores=2, slots_per_core=2,
                            domain_of_core=None, inverse_speeds=None,
                            rng=None))
    window = _window([_delta(0, 0), _delta(1, 1)],
                     queues={0: [0], 1: [1]})
    assert not policy.decide(window)


def test_adaptive_prefers_faster_idle_core():
    policy = AdaptiveAllocation()
    policy.attach(SchedView(num_cores=4, slots_per_core=2,
                            domain_of_core=None,
                            inverse_speeds=(1.0, 1.0, 2.0, 1.0),
                            rng=None))
    # cores 2 (slow) and 3 (fast) idle; the drained thread must land
    # on the faster core 3
    window = _window([_delta(i, 0) for i in range(3)],
                     queues={0: [0, 1, 2], 1: []})
    decision = policy.decide(window)
    assert 3 in decision.migrations.values()
    assert 2 not in decision.migrations.values()


# -- contention --------------------------------------------------------


def test_contention_moves_starved_thread_off_hot_domain():
    policy = ContentionAwareMigration()
    policy.attach(SchedView(num_cores=4, slots_per_core=1,
                            domain_of_core=[0, 0, 1, 1],
                            inverse_speeds=None, rng=None))
    # domain 0 threads suffer long miss latencies; domain 1's thread
    # barely misses, core 3 idle
    threads = [
        _delta(0, 0, l1=80, l2=60, lat=80_000),
        _delta(1, 1, l1=80, l2=60, lat=80_000),
        _delta(2, 2, l1=2, l2=1, lat=100),
    ]
    window = _window(threads, domain_of_core=[0, 0, 1, 1])
    decision = policy.decide(window)
    assert decision.migrations
    (tid, core), = decision.migrations.items()
    assert tid in (0, 1)  # a domain-0 victim
    assert core == 3      # the idle core on the cool domain


def test_contention_hysteresis_blocks_balanced_domains():
    policy = ContentionAwareMigration()
    policy.attach(SchedView(num_cores=4, slots_per_core=1,
                            domain_of_core=[0, 0, 1, 1],
                            inverse_speeds=None, rng=None))
    threads = [
        _delta(0, 0, lat=4000),
        _delta(1, 2, lat=3900),
    ]
    window = _window(threads, domain_of_core=[0, 0, 1, 1])
    assert not policy.decide(window)


# -- hetero ------------------------------------------------------------


def test_hetero_is_noop_on_homogeneous_machine():
    policy = HeteroAware()
    policy.attach(SchedView(num_cores=4, slots_per_core=1,
                            domain_of_core=None, inverse_speeds=None,
                            rng=None))
    window = _window([_delta(0, 0, lat=90_000)])
    assert not policy.decide(window)


def test_hetero_moves_costly_thread_to_fast_idle_core():
    policy = HeteroAware()
    # cores 0-1 slow (speed 0.5), cores 2-3 fast
    policy.attach(SchedView(num_cores=4, slots_per_core=1,
                            domain_of_core=None,
                            inverse_speeds=(2.0, 2.0, 1.0, 1.0),
                            rng=None))
    threads = [
        _delta(0, 0, l1=80, l2=60, lat=90_000),
        _delta(1, 2, l1=2, l2=1, lat=100),
    ]
    window = _window(threads)
    decision = policy.decide(window)
    assert decision.migrations.get(0) == 3  # the free fast core


# -- heterogeneous spec parsers ---------------------------------------


def test_parse_core_speeds_run_length():
    assert parse_core_speeds("1.0x2,0.5x2", 4) == (1.0, 1.0, 0.5, 0.5)
    assert parse_core_speeds("", 4) == ()


def test_parse_core_speeds_rejects_wrong_count():
    with pytest.raises(ConfigurationError):
        parse_core_speeds("1.0x3", 4)


def test_parse_domain_assoc():
    assert parse_domain_assoc("16x2,8x2", 4) == (16, 16, 8, 8)
    with pytest.raises(ConfigurationError):
        parse_domain_assoc("16,8", 4)


def test_machine_config_hetero_flags():
    uniform = MachineConfig()
    assert not uniform.heterogeneous
    assert uniform.inverse_core_speeds() == ()

    fast_slow = MachineConfig(core_speeds=(1.0,) * 8 + (0.5,) * 8)
    assert fast_slow.heterogeneous
    inv = fast_slow.inverse_core_speeds()
    assert inv[0] == 1.0 and inv[15] == 2.0

    # all-1.0 speed classes normalize to homogeneous
    assert MachineConfig(core_speeds=(1.0,) * 16).inverse_core_speeds() == ()


def test_machine_config_asym_l2_geometries():
    config = MachineConfig(l2_domain_assoc=(16, 16, 8, 8))
    geoms = config.l2_domain_geometries()
    assert len(geoms) == 4
    assert geoms[0].assoc == 16 and geoms[3].assoc == 8
    # asymmetric capacity, identical set count (index math unchanged)
    assert geoms[0].num_sets == geoms[3].num_sets
    assert geoms[3].size_bytes == geoms[0].size_bytes // 2


def test_machine_config_validates_hetero_fields():
    with pytest.raises(ConfigurationError):
        MachineConfig(core_speeds=(1.0, 0.5))  # wrong length
    with pytest.raises(ConfigurationError):
        MachineConfig(core_speeds=(0.0,) * 16)  # non-positive
    with pytest.raises(ConfigurationError):
        MachineConfig(l2_domain_assoc=(16, 8))  # wrong length
