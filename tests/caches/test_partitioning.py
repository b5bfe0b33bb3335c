"""Tests for way-quota cache partitioning (performance isolation)."""

import pytest

from repro.caches.geometry import CacheGeometry
from repro.caches.hierarchy import L2Domain, decode_line
from repro.caches.partitioning import WayQuota, equal_quotas
from repro.errors import ConfigurationError


def one_set_domain(assoc=4):
    """A one-core L2 domain with a single set."""
    geometry = CacheGeometry(size_bytes=assoc * 64, assoc=assoc, latency=1)
    return L2Domain(0, geometry, [0])


def fill(domain, quota, vm_id, blocks):
    """Insert clean lines of ``vm_id`` through the quota's selector."""
    domain.set_quota(quota)
    for block in blocks:
        domain.fill(block, dirty=False, vm_id=vm_id, requester_slot=0)


def owners(domain):
    return [decode_line(code).vm_id for _b, code in domain.cache.contents()]


class TestWayQuota:
    def test_vm_cannot_exceed_quota_under_pressure(self):
        domain = one_set_domain(assoc=4)
        quota = WayQuota({0: 2, 1: 2}, assoc=4)
        fill(domain, quota, 0, [0, 1])        # VM0 at quota
        fill(domain, quota, 1, [2, 3])        # VM1 at quota, set full
        fill(domain, quota, 0, [4, 5, 6])     # VM0 keeps inserting
        assert owners(domain).count(0) == 2
        assert owners(domain).count(1) == 2
        assert quota.self_evictions == 3

    def test_victim_is_own_lru_line(self):
        domain = one_set_domain(assoc=4)
        quota = WayQuota({0: 2, 1: 2}, assoc=4)
        fill(domain, quota, 0, [0, 1])
        fill(domain, quota, 1, [2, 3])
        fill(domain, quota, 0, [4])
        assert 0 not in domain.cache      # VM0's LRU line evicted
        assert 1 in domain.cache and 4 in domain.cache

    def test_unused_ways_are_borrowable(self):
        """Quotas bound growth only: an idle VM's ways stay usable."""
        domain = one_set_domain(assoc=4)
        quota = WayQuota({0: 2, 1: 2}, assoc=4)
        fill(domain, quota, 0, [0, 1, 2, 3])  # VM1 absent; VM0 fills all
        assert len(domain.cache) == 4

    def test_over_quota_neighbour_reclaimed(self):
        domain = one_set_domain(assoc=4)
        quota = WayQuota({0: 2, 1: 2}, assoc=4)
        fill(domain, quota, 0, [0, 1, 2, 3])  # VM0 borrowed to 4 ways
        fill(domain, quota, 1, [10])          # VM1 arrives: reclaim
        assert owners(domain).count(1) == 1
        assert owners(domain).count(0) == 3
        assert quota.reclaims == 1

    def test_unlisted_vm_unconstrained(self):
        domain = one_set_domain(assoc=4)
        quota = WayQuota({0: 1}, assoc=4)
        fill(domain, quota, 9, [0, 1, 2, 3])
        assert len(domain.cache) == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WayQuota({}, assoc=4)
        with pytest.raises(ConfigurationError):
            WayQuota({0: 0}, assoc=4)
        with pytest.raises(ConfigurationError):
            WayQuota({0: 5}, assoc=4)


class TestSetQuota:
    def test_rewrite_changes_the_live_quota(self):
        quota = WayQuota({0: 2, 1: 2}, assoc=4)
        quota.set_quota(0, 3)
        assert quota.quotas == {0: 3, 1: 2}
        assert quota.adjustments == 1

    def test_noop_rewrite_not_counted(self):
        quota = WayQuota({0: 2, 1: 2}, assoc=4)
        quota.set_quota(0, 2)
        assert quota.adjustments == 0

    def test_over_associativity_rejected(self):
        quota = WayQuota({0: 2, 1: 2}, assoc=4)
        with pytest.raises(ConfigurationError):
            quota.set_quota(0, 5)
        assert quota.quotas[0] == 2  # unchanged after the failure

    def test_non_positive_rejected(self):
        quota = WayQuota({0: 2, 1: 2}, assoc=4)
        with pytest.raises(ConfigurationError):
            quota.set_quota(0, 0)

    def test_unknown_vm_rejected(self):
        quota = WayQuota({0: 2, 1: 2}, assoc=4)
        with pytest.raises(ConfigurationError, match="no way quota"):
            quota.set_quota(9, 1)

    def test_update_applies_many_and_counts_changes(self):
        quota = WayQuota({0: 2, 1: 2}, assoc=4)
        assert quota.update({0: 3, 1: 1}) == 2
        assert quota.update({0: 3, 1: 1}) == 0
        assert quota.quotas == {0: 3, 1: 1}

    def test_raised_quota_takes_effect_at_the_next_insertion(self):
        domain = one_set_domain(assoc=4)
        quota = WayQuota({0: 2, 1: 2}, assoc=4)
        fill(domain, quota, 0, [0, 1])
        fill(domain, quota, 1, [2, 3])
        quota.set_quota(0, 3)          # controller grows VM0's share
        quota.set_quota(1, 1)
        fill(domain, quota, 0, [4])     # VM0 may now take a third way
        assert owners(domain).count(0) == 3
        assert owners(domain).count(1) == 1
        assert quota.reclaims == 1     # VM1 is over its shrunk quota


class TestEqualQuotas:
    def test_even_split(self):
        assert equal_quotas([0, 1], 16) == {0: 8, 1: 8}
        assert equal_quotas([0, 1, 2, 3], 16) == {vm: 4 for vm in range(4)}

    def test_minimum_one_way(self):
        assert equal_quotas(list(range(8)), 4) == {vm: 1 for vm in range(8)}

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            equal_quotas([], 8)


class TestDomainIntegration:
    def test_domain_fill_respects_quota(self):
        geometry = CacheGeometry(size_bytes=4 * 64, assoc=4, latency=1)
        domain = L2Domain(0, geometry, [0])
        from repro.caches.hierarchy import CoreCacheStack
        from repro.caches.geometry import CacheGeometry as G
        stack = CoreCacheStack(0, G(4 * 64, 2, 1), G(8 * 64, 2, 1))
        domain.attach(stack)
        domain.set_quota(WayQuota({0: 2, 1: 2}, assoc=4))
        for block in (0, 1):
            domain.fill(block, dirty=False, vm_id=0, requester_slot=0)
        for block in (2, 3):
            domain.fill(block, dirty=False, vm_id=1, requester_slot=0)
        domain.fill(4, dirty=False, vm_id=0, requester_slot=0)
        assert owners(domain).count(0) == 2 and owners(domain).count(1) == 2


class TestExperimentIntegration:
    def test_quota_restores_isolation_for_specjbb(self):
        """The conclusion's thesis: with fair quotas, SPECjbb's miss
        rate under RR consolidation with TPC-W drops toward its
        no-co-runner level."""
        from repro.core.experiment import (
            ExperimentSpec, clear_result_cache, run_experiment)
        clear_result_cache()
        kw = dict(measured_refs=2500, warmup_refs=1000, seed=1, policy="rr")
        free = run_experiment(ExperimentSpec(mix="mix7", **kw))
        fair = run_experiment(ExperimentSpec(
            mix="mix7", qos_policy="static-equal", **kw))
        jbb_free = sum(vm.miss_rate for vm in free.metrics_for("specjbb")) / 3
        jbb_fair = sum(vm.miss_rate for vm in fair.metrics_for("specjbb")) / 3
        assert jbb_fair <= jbb_free * 1.02
        clear_result_cache()
