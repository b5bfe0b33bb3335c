"""The basket holds only the measurements perfbench does not take."""

from repro.bench import bench_names


def test_basket_is_the_entries_perfbench_does_not_time():
    # cells in a warm interpreter, scorecards and closed-loop service
    # latency are perfbench's workloads; cold-start records fresh
    # interpreters, with quartiles, revision and core count
    assert bench_names() == ["qos-overhead", "obs-tracing", "cold-start",
                             "sweep-throughput", "service-loadgen"]
