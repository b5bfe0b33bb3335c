"""Tests for the FIFO resource server."""

from hypothesis import given, strategies as st

from repro.sim.server import FifoServer


class TestFifoServer:
    def test_idle_server_no_wait(self):
        s = FifoServer("s", service_time=5)
        assert s.request(100) == 0
        assert s.busy_until == 105

    def test_back_to_back_queueing(self):
        s = FifoServer("s", service_time=5)
        s.request(0)
        wait = s.request(0)
        assert wait == 5
        assert s.busy_until == 10

    def test_gap_larger_than_service_resets(self):
        s = FifoServer("s", service_time=5)
        s.request(0)
        assert s.request(100) == 0

    def test_custom_service_time(self):
        s = FifoServer("s", service_time=5)
        s.request(0, service_time=50)
        assert s.busy_until == 50

    def test_regressing_arrival_clamped(self):
        s = FifoServer("s", service_time=5)
        s.request(100)
        # arrival at an earlier time than the last one is clamped
        wait = s.request(50)
        assert wait == 5  # behaves as if it arrived at 100

    def test_peek_does_not_mutate(self):
        s = FifoServer("s", service_time=5)
        s.request(0)
        before = s.busy_until
        assert s.peek_wait(0) == 5
        assert s.busy_until == before

    def test_stats(self):
        s = FifoServer("s", service_time=4)
        s.request(0)
        s.request(0)
        assert s.stats.requests == 2
        assert s.stats.busy_cycles == 8
        assert s.stats.wait_cycles == 4
        assert s.stats.mean_wait == 2.0
        assert s.stats.utilization(16) == 0.5

    def test_reset(self):
        s = FifoServer("s", service_time=4)
        s.request(0)
        s.reset()
        assert s.busy_until == 0
        assert s.stats.requests == 0


class TestFifoServerProperties:
    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 50)),
                    min_size=1, max_size=200))
    def test_busy_until_monotone_under_sorted_arrivals(self, reqs):
        """Under time-ordered arrivals busy_until never decreases and
        waits are exactly the backlog."""
        reqs = sorted(reqs, key=lambda r: r[0])
        s = FifoServer("s", service_time=1)
        prev_busy = 0
        for now, service in reqs:
            wait = s.request(now, service_time=service)
            assert wait >= 0
            assert s.busy_until >= prev_busy
            assert s.busy_until >= now + service
            prev_busy = s.busy_until

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=100))
    def test_busy_cycles_equals_total_service(self, arrivals):
        s = FifoServer("s", service_time=7)
        for now in sorted(arrivals):
            s.request(now)
        assert s.stats.busy_cycles == 7 * len(arrivals)

    @given(st.lists(st.tuples(st.integers(0, 2_000), st.integers(0, 50)),
                    min_size=1, max_size=200))
    def test_matches_clamped_fifo_model_on_any_arrival_order(self, reqs):
        """Unsorted arrivals: each request is clamped to the last
        arrival and then waits out the backlog, whatever the order."""
        s = FifoServer("s", service_time=1)
        busy = last = waited = 0
        for now, service in reqs:
            arrival = max(now, last)
            wait = max(0, busy - arrival)
            busy, last, waited = arrival + wait + service, arrival, waited + wait
            assert s.request(now, service_time=service) == wait
            assert (s.busy_until, s.stats.last_arrival) == (busy, last)
        assert s.stats.wait_cycles == waited
        assert s.stats.requests == len(reqs)
