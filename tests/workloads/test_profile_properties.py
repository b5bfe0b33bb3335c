"""Property-based tests on profile layout invariants."""

from hypothesis import assume, example, given, settings, strategies as st

from repro.workloads.profile import WorkloadProfile


@st.composite
def profiles(draw):
    footprint = draw(st.integers(2000, 500_000))
    frac_shared = draw(st.floats(0.0, 0.7))
    frac_mig = draw(st.floats(0.0, 0.2))
    assume(frac_shared + frac_mig <= 0.9)
    shared_blocks = int(footprint * frac_shared)
    window = draw(st.integers(16, max(16, max(1, shared_blocks))))
    assume(shared_blocks == 0 or window <= shared_blocks)
    threads = draw(st.sampled_from([1, 2, 4, 8]))
    profile = WorkloadProfile(
        name="prop",
        footprint_blocks=footprint,
        threads=threads,
        frac_shared_read=frac_shared,
        frac_migratory=frac_mig,
        p_hot=draw(st.floats(0.0, 0.4)),
        hot_blocks_per_thread=8,
        p_shared_read=draw(st.floats(0.0, 0.3)),
        p_migratory=draw(st.floats(0.0, 0.2)),
        scan_window=window,
        scan_lag=draw(st.integers(0, 1000)),
        scan_slide=draw(st.floats(0.0, 1.0)),
    )
    assume(profile.hot_blocks_per_thread < profile.private_blocks_per_thread)
    return profile


class TestLayoutInvariants:
    @given(profiles())
    @settings(max_examples=100)
    def test_pools_partition_the_footprint(self, profile):
        """Pools are disjoint, ordered, and fit within the footprint."""
        offsets = profile.pool_offsets()
        assert offsets["shared_read"] == 0
        assert offsets["migratory"] == profile.shared_read_blocks
        assert (offsets["private"]
                == profile.shared_read_blocks + profile.migratory_blocks)
        assert profile.partition_blocks <= profile.footprint_blocks
        assert profile.private_blocks_per_thread >= 1

    @given(profiles())
    @settings(max_examples=100)
    def test_probabilities_form_a_distribution(self, profile):
        total = (profile.p_hot + profile.p_shared_read
                 + profile.p_migratory + profile.p_private)
        assert abs(total - 1.0) < 1e-9
        assert profile.p_private >= 0.0

    @given(profiles(), st.sampled_from([1 / 4, 1 / 16, 1 / 64]))
    @example(  # the 4-blocks-per-thread floor left no private pool
        WorkloadProfile(name="prop", footprint_blocks=2000, threads=8,
                        frac_shared_read=0.6875, frac_migratory=0.125,
                        p_hot=0.0, hot_blocks_per_thread=8,
                        p_shared_read=0.0, p_migratory=0.0,
                        scan_window=16, scan_lag=0, scan_slide=0.0),
        1 / 64)
    @settings(max_examples=60)
    def test_scaling_preserves_structure(self, profile, factor):
        scaled = profile.scaled(factor)
        assert scaled.threads == profile.threads
        assert scaled.partition_blocks <= scaled.footprint_blocks
        if scaled.shared_read_blocks:
            assert scaled.scan_window <= scaled.shared_read_blocks
        # access probabilities are scale-invariant
        assert scaled.p_shared_read == profile.p_shared_read
        assert scaled.p_migratory == profile.p_migratory
