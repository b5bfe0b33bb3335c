"""Tests for the QoS controllers and their allocation arithmetic."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.probes import Delta, SensingWindow
from repro.qos.controllers import (
    CONTROLLERS,
    MissRateProportional,
    QosDecision,
    QosView,
    StaticEqual,
    TargetSlowdown,
    UcpLookahead,
    _largest_remainder,
    controller_names,
    make_controller,
    ucp_partition,
)


def delta(l2_misses=0, issued=0.0, l1_misses=0, refs=0, vm=0):
    return Delta(vm, l1_misses=l1_misses, l2_misses=l2_misses, refs=refs,
                 issued=issued)


def window(now=10_000, vms=None, queues=None, thread_vms=None):
    """A window; ``thread_vms`` (thread id -> VM id) fills ``threads``."""
    threads = {tid: Delta(vm, thread_id=tid)
               for tid, vm in sorted((thread_vms or {}).items())}
    return SensingWindow(now, threads=threads, vms=vms or {},
                         queues=queues)


def view(assoc=16, domain_vms=None, **extra):
    return QosView(assoc=assoc,
                   domain_vms=domain_vms or {0: [0, 1]},
                   vm_workloads={}, **extra)


class TestLargestRemainder:
    def test_sums_to_total_with_floor(self):
        out = _largest_remainder({0: 3.0, 1: 1.0}, 16)
        assert sum(out.values()) == 16
        assert min(out.values()) >= 1

    def test_follows_the_weights(self):
        out = _largest_remainder({0: 30.0, 1: 10.0}, 16)
        assert out == {0: 12, 1: 4}

    def test_leftover_tie_goes_to_lower_vm(self):
        # equal weights, odd spare: fractional remainders tie
        out = _largest_remainder({0: 1.0, 1: 1.0}, 5)
        assert out == {0: 3, 1: 2}

    def test_zero_weights_fall_back_to_equal(self):
        out = _largest_remainder({0: 0.0, 1: 0.0}, 8)
        assert out == {0: 4, 1: 4}

    def test_too_many_vms_rejected(self):
        with pytest.raises(ConfigurationError):
            _largest_remainder({vm: 1.0 for vm in range(5)}, 4)


class TestUcpPartition:
    def test_capacity_flows_to_the_utile_vm(self):
        curves = {0: [10, 20, 30, 40, 50, 60, 70, 80],
                  1: [5, 5, 5, 5, 5, 5, 5, 5]}
        alloc = ucp_partition(curves, assoc=8)
        assert sum(alloc.values()) == 8
        assert alloc == {0: 7, 1: 1}

    def test_equal_concave_curves_split_evenly(self):
        # diminishing returns: after vm0's first extra way, vm1's first
        # extra way has the larger marginal utility
        curves = {0: [10, 15, 17, 18], 1: [10, 15, 17, 18]}
        assert ucp_partition(curves, assoc=4) == {0: 2, 1: 2}

    def test_flat_curves_keep_the_floor(self):
        # zero marginal utility everywhere: ways accumulate on vm0 by
        # the deterministic tiebreak, floors stay respected
        alloc = ucp_partition({0: [0, 0], 1: [0, 0]}, assoc=4)
        assert alloc[0] + alloc[1] == 4
        assert min(alloc.values()) >= 1

    def test_saturated_curve_stops_attracting(self):
        # vm0 gains nothing past 2 ways; vm1 keeps improving
        curves = {0: [50, 60, 60, 60, 60, 60, 60, 60],
                  1: [10, 20, 30, 40, 50, 60, 70, 80]}
        alloc = ucp_partition(curves, assoc=8)
        assert alloc == {0: 2, 1: 6}

    def test_over_subscription_rejected(self):
        with pytest.raises(ConfigurationError):
            ucp_partition({0: [1], 1: [1], 2: [1]}, assoc=2)


class TestStaticEqual:
    def test_decides_nothing(self):
        controller = StaticEqual()
        controller.attach(view())
        decision = controller.decide(window())
        assert decision.empty


class TestMissRateProportional:
    def test_ways_follow_miss_shares(self):
        controller = MissRateProportional()
        controller.attach(view(assoc=16))
        decision = controller.decide(window(vms={
            0: delta(l2_misses=30), 1: delta(l2_misses=10)}))
        assert decision.quotas == {0: {0: 12, 1: 4}}

    def test_quiet_epoch_holds_quotas(self):
        controller = MissRateProportional()
        controller.attach(view())
        decision = controller.decide(window(vms={
            0: delta(l2_misses=0), 1: delta(l2_misses=0)}))
        assert decision.empty

    def test_single_measured_vm_holds_quotas(self):
        controller = MissRateProportional()
        controller.attach(view())
        decision = controller.decide(window(vms={0: delta(l2_misses=9)}))
        assert decision.empty


class TestUcpLookahead:
    def test_waits_for_enough_samples(self):
        controller = UcpLookahead(min_accesses=32)
        controller.attach(view(assoc=4))

        class FakeChip:
            class config:
                l2_assoc = 4

                @staticmethod
                def l2_geometry():
                    from repro.caches.geometry import CacheGeometry
                    return CacheGeometry(size_bytes=4 * 64 * 8, assoc=4,
                                         latency=1)

        monitors = controller.build_monitors(FakeChip())
        assert set(monitors) == {0}
        assert controller.decide(window()).empty  # nothing sampled yet

    def test_repartitions_from_observed_curves(self):
        controller = UcpLookahead(min_accesses=4)
        controller.attach(view(assoc=4, domain_vms={0: [0, 1]}))
        monitor = controller.build_monitors(_chip_stub(assoc=4))[0]
        # vm0 re-references one block (high utility at 1 way); vm1
        # streams without reuse (no utility at any allocation)
        for _ in range(10):
            monitor.observe(0, block=8)
        for block in range(16, 16 + 10):
            monitor.observe(1, block * 8)
        decision = controller.decide(window())
        assert decision.quotas[0][0] >= decision.quotas[0][1]
        assert sum(decision.quotas[0].values()) == 4
        # histograms reset after a repartition: next epoch starts fresh
        assert monitor.accesses(0) == 0


def _chip_stub(assoc=4, num_sets=8):
    from repro.caches.geometry import CacheGeometry

    class Config:
        l2_assoc = assoc

        @staticmethod
        def l2_geometry():
            return CacheGeometry(size_bytes=assoc * 64 * num_sets,
                                 assoc=assoc, latency=1)

    class Chip:
        config = Config()

    return Chip()


class TestTargetSlowdownAttach:
    def test_needs_a_positive_target(self):
        controller = TargetSlowdown()
        with pytest.raises(ConfigurationError):
            controller.attach(view(baseline_cpr={0: 1.0}, target=0.0))

    def test_needs_baselines(self):
        controller = TargetSlowdown()
        with pytest.raises(ConfigurationError):
            controller.attach(view(baseline_cpr={}, target=1.2))


class TestTargetSlowdownDecide:
    def attached(self, assoc=8, target=1.2):
        controller = TargetSlowdown()
        controller.attach(view(
            assoc=assoc, domain_vms={0: [0, 1]},
            baseline_cpr={0: 10.0, 1: 10.0}, target=target,
        ))
        return controller

    def test_moves_one_way_from_donor_to_victim(self):
        controller = self.attached()
        # vm0 at slowdown 2.0 (victim), vm1 at 1.0 (donor with slack)
        decision = controller.decide(window(now=1000, vms={
            0: delta(issued=50.0), 1: delta(issued=100.0)}))
        assert decision.quotas == {0: {0: 5, 1: 3}}
        assert controller.violations == 1
        assert controller.slowdowns == {0: 2.0, 1: 1.0}

    def test_moves_accumulate_across_epochs(self):
        controller = self.attached()
        vms = {0: delta(issued=50.0), 1: delta(issued=100.0)}
        controller.decide(window(now=1000, vms=vms))
        decision = controller.decide(window(now=1000, vms=vms))
        assert decision.quotas == {0: {0: 6, 1: 2}}

    def test_donor_never_drops_below_one_way(self):
        controller = self.attached()
        vms = {0: delta(issued=50.0), 1: delta(issued=100.0)}
        for _ in range(10):
            decision = controller.decide(window(now=1000, vms=vms))
        assert decision.empty  # donor exhausted at 1 way, nothing moves
        assert controller._ways[0] == {0: 7, 1: 1}

    def test_dead_band_prevents_oscillation(self):
        # both VMs inside [low band, target]: nobody moves
        controller = self.attached(target=1.2)
        # cpr 11.9 vs baseline 10: slowdown 1.19, inside [1.176, 1.2]
        decision = controller.decide(window(now=11900, vms={
            0: delta(issued=1000.0), 1: delta(issued=1000.0)}))
        assert decision.empty
        assert controller.violations == 0

    def test_no_donor_means_no_move(self):
        # everyone over target: violation recorded but no way moves
        controller = self.attached()
        decision = controller.decide(window(now=2000, vms={
            0: delta(issued=100.0), 1: delta(issued=100.0)}))
        assert decision.quotas == {}
        assert controller.violations == 1

    def test_rebind_targets_a_waiting_victim_thread(self):
        controller = self.attached()
        decision = controller.decide(window(
            now=1000,
            vms={0: delta(issued=50.0), 1: delta(issued=100.0)},
            queues={0: [5, 1, 2], 1: [9]},
            thread_vms={5: 1, 1: 0, 2: 0, 9: 1},
        ))
        # vm0 is the victim; its waiting thread 1 moves to the shortest
        # queue.  The head thread (5) is never touched.
        assert decision.rebinds == {1: 1}

    def test_rebind_skips_balanced_queues(self):
        controller = self.attached()
        decision = controller.decide(window(
            now=1000,
            vms={0: delta(issued=50.0), 1: delta(issued=100.0)},
            queues={0: [5, 1], 1: [9, 2]},
            thread_vms={5: 0, 1: 0, 9: 1, 2: 1},
        ))
        assert decision.rebinds == {}


class TestRegistry:
    def test_names_cover_all_policies(self):
        assert controller_names() == sorted(CONTROLLERS)
        assert {"static-equal", "missrate-prop", "ucp",
                "target-slowdown"} <= set(CONTROLLERS)

    def test_make_controller_normalizes_case(self):
        assert isinstance(make_controller(" UCP "), UcpLookahead)

    def test_unknown_policy_is_a_config_error(self):
        with pytest.raises(ConfigurationError, match="unknown QoS policy"):
            make_controller("nope")


class TestQosDecision:
    def test_empty_property(self):
        assert QosDecision().empty
        assert not QosDecision(quotas={0: {0: 1}}).empty
        assert not QosDecision(rebinds={1: 2}).empty
