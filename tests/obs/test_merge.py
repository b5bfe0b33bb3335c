"""Tests for histogram percentile estimation and the exact histogram
sums of the ``/metrics`` exposition."""

import pytest

from repro.obs.telemetry import (
    Histogram,
    Telemetry,
    histogram_percentile,
    render_prometheus,
)


class TestHistogramPercentile:
    def test_empty_histogram_is_zero(self):
        assert Histogram("h", bounds=(1, 2)).percentile(99) == 0.0

    def test_interpolates_inside_a_bucket(self):
        hist = Histogram("h", bounds=(10.0, 20.0))
        for _ in range(10):
            hist.observe(5.0)  # all in [0, 10]
        assert hist.percentile(50) == pytest.approx(5.0)
        assert hist.percentile(100) == pytest.approx(10.0)

    def test_spans_buckets(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for _ in range(50):
            hist.observe(0.5)
        for _ in range(50):
            hist.observe(3.0)
        assert hist.percentile(50) == pytest.approx(1.0)
        assert 2.0 <= hist.percentile(99) <= 4.0

    def test_overflow_bucket_clamps_to_last_bound(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(100.0)
        assert hist.percentile(99) == 2.0

    def test_snapshot_shaped_input(self):
        estimate = histogram_percentile(
            {"bounds": [1.0, 2.0], "counts": [0, 4, 0],
             "observations": 4}, 50)
        assert 1.0 < estimate <= 2.0

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            histogram_percentile({"bounds": [], "counts": [0]}, 0)


class TestExactSums:
    def test_single_bucket_histogram_percentiles(self):
        hist = Histogram("h", bounds=(1.0,))
        for value in (0.2, 0.4, 0.9):
            hist.observe(value)
        # every rank interpolates inside the one [0, 1] bucket
        assert hist.percentile(50) == pytest.approx(0.5)
        assert hist.percentile(100) == pytest.approx(1.0)

    def test_prometheus_sum_is_exact_not_mean_times_count(self):
        hub = Telemetry()
        hist = hub.histogram("x_seconds", bounds=(1.0, 2.0))
        for value in (0.1, 0.2, 0.25, 2.0):
            hist.observe(value)
        text = render_prometheus(hub.snapshot())
        assert "repro_x_seconds_sum 2.55" in text
