"""The basket holds only the measurements perfbench does not take."""

from repro.bench import bench_names


def test_basket_is_the_entries_perfbench_does_not_time():
    # cold cells, scorecards and closed-loop service latency are
    # perfbench's workloads
    assert bench_names() == ["qos-overhead", "obs-tracing",
                             "sweep-throughput", "service-loadgen"]
