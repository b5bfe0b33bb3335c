"""Tests for the exception hierarchy contract."""

import pytest

from repro.errors import (
    CoherenceError,
    ConfigurationError,
    ReproError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (ConfigurationError, SimulationError, CoherenceError,
                    WorkloadError, SchedulingError):
            assert issubclass(exc, ReproError)

    def test_coherence_is_simulation_error(self):
        """Coherence violations are simulator bugs, not user errors."""
        assert issubclass(CoherenceError, SimulationError)

    def test_single_catch_covers_library_failures(self):
        with pytest.raises(ReproError):
            raise SchedulingError("no cores")
        with pytest.raises(ReproError):
            raise WorkloadError("bad profile")

    def test_programming_errors_not_swallowed(self):
        """TypeError and friends must not be part of the hierarchy."""
        assert not issubclass(TypeError, ReproError)
        assert not issubclass(ValueError, ReproError)


class TestUserFacingPaths:
    def test_bad_mix_is_configuration_error(self):
        from repro.core.mixes import get_mix
        with pytest.raises(ConfigurationError):
            get_mix("mix0")

    def test_bad_workload_is_workload_error(self):
        from repro.workloads.library import get_profile
        with pytest.raises(WorkloadError):
            get_profile("mysql")

    def test_bad_sharing_is_configuration_error(self):
        from repro.machine.config import SharingDegree
        with pytest.raises(ConfigurationError):
            SharingDegree.from_name("shared-3")
