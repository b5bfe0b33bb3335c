"""Tests for the QoS utility monitor."""

import pytest

from repro.qos.sensors import UtilityMonitor


class TestUtilityMonitorValidation:
    def test_rejects_bad_assoc(self):
        with pytest.raises(ValueError):
            UtilityMonitor(0, assoc=0, num_sets=8)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            UtilityMonitor(0, assoc=4, num_sets=6)

    def test_rejects_bad_sampling(self):
        with pytest.raises(ValueError):
            UtilityMonitor(0, assoc=4, num_sets=8, sample_every=0)


class TestUtilityMonitor:
    def monitor(self, assoc=4, num_sets=8, sample_every=1):
        return UtilityMonitor(0, assoc=assoc, num_sets=num_sets,
                              sample_every=sample_every)

    def test_first_touch_is_a_shadow_miss(self):
        mon = self.monitor()
        mon.observe(0, block=8)
        assert mon.accesses(0) == 1
        assert mon.utility_curve(0) == [0, 0, 0, 0]

    def test_immediate_reuse_hits_with_one_way(self):
        mon = self.monitor()
        mon.observe(0, block=8)
        mon.observe(0, block=8)
        assert mon.utility_curve(0)[0] == 1

    def test_stack_distance_needs_enough_ways(self):
        # touch A, then B..D (same set), then A again: A sits at stack
        # distance 3, so the re-reference hits only with 4+ ways
        mon = self.monitor(assoc=4, num_sets=8)
        for block in (0, 8, 16, 24, 0):
            mon.observe(0, block)
        curve = mon.utility_curve(0)
        assert curve == [0, 0, 0, 1]

    def test_curve_is_cumulative_and_monotone(self):
        mon = self.monitor(assoc=4, num_sets=8)
        for block in (0, 0, 8, 0, 8):  # hits at distances 0, 1, 1
            mon.observe(0, block)
        curve = mon.utility_curve(0)
        assert curve == [1, 3, 3, 3]
        assert curve == sorted(curve)

    def test_capacity_evictions_limit_the_stack(self):
        # 5 distinct same-set blocks through a 4-deep shadow stack: the
        # first one is evicted, so its re-reference misses again
        mon = self.monitor(assoc=4, num_sets=8)
        for block in (0, 8, 16, 24, 32, 0):
            mon.observe(0, block)
        assert mon.utility_curve(0) == [0, 0, 0, 0]
        assert mon.misses[0] == 6

    def test_set_sampling_skips_unsampled_sets(self):
        mon = self.monitor(num_sets=8, sample_every=4)
        mon.observe(0, block=1)   # set 1: not sampled
        mon.observe(0, block=4)   # set 4: sampled
        assert mon.accesses(0) == 1

    def test_vms_tracked_independently(self):
        mon = self.monitor()
        mon.observe(0, block=8)
        mon.observe(1, block=8)
        mon.observe(0, block=8)
        assert mon.utility_curve(0)[0] == 1
        assert mon.utility_curve(1) == [0, 0, 0, 0]

    def test_negative_vm_ignored(self):
        mon = self.monitor()
        mon.observe(-1, block=8)
        assert mon.accesses(-1) == 0

    def test_reset_clears_histograms_but_keeps_tags_warm(self):
        mon = self.monitor()
        mon.observe(0, block=8)
        mon.observe(0, block=8)
        mon.reset()
        assert mon.accesses(0) == 0
        # the shadow tag survives the reset: next touch is still a hit
        mon.observe(0, block=8)
        assert mon.utility_curve(0)[0] == 1
