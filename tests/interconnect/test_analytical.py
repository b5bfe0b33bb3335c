"""Tests for the analytical (queueing) mesh model."""

from types import SimpleNamespace

from hypothesis import given, strategies as st

from repro.interconnect.analytical import AnalyticalMesh
from repro.interconnect.topology import MeshTopology
from repro.sim.server import FifoServer


def mesh():
    return AnalyticalMesh(MeshTopology(4, 4))


def link(m, src, dst):
    """The state of mesh link ``src -> dst``: its two FIFO registers and
    the requests (messages) and busy cycles (flits) it has served."""
    link_id = m.topology.link_id(src, dst)
    requests, busy_cycles = m.link_loads()[link_id]
    return SimpleNamespace(busy_until=m._busy[link_id],
                           last_arrival=m._last[link_id],
                           requests=requests, busy_cycles=busy_cycles)


class TestZeroLoad:
    def test_local_traversal_free(self):
        m = mesh()
        assert m.traverse(3, 3, flits=5, now=0) == 0
        assert m.total_hops == 0 and m.messages == 0

    def test_single_hop_control(self):
        m = mesh()
        assert m.traverse(0, 1, flits=1, now=0) == m.hop_cycles  # 1 hop, 1 flit
        assert m.total_queueing == 0
        assert m.total_hops == 1

    def test_serialization_added_once(self):
        m = mesh()
        assert m.traverse(0, 1, flits=5, now=0) == m.hop_cycles + 4

    def test_matches_zero_load_formula(self):
        m = mesh()
        for src, dst, flits in ((0, 15, 5), (2, 9, 1), (7, 8, 5)):
            latency = m.traverse(src, dst, flits, now=10_000_000 * (src + 1))
            assert latency == m.zero_load_latency(src, dst, flits)
        assert m.total_queueing == 0


class TestContention:
    def test_back_to_back_on_same_link_queues(self):
        m = mesh()
        first = m.traverse(0, 1, flits=5, now=0)
        second = m.traverse(0, 1, flits=5, now=0)
        assert m.total_queueing > 0
        assert second > first
        assert second - m.zero_load_latency(0, 1, 5) == m.total_queueing

    def test_disjoint_paths_do_not_interfere(self):
        m = mesh()
        m.traverse(0, 1, flits=5, now=0)
        latency = m.traverse(14, 15, flits=5, now=0)
        assert latency == m.zero_load_latency(14, 15, 5)
        assert m.total_queueing == 0

    def test_regressed_arrival_gets_the_clamped_wait(self):
        m = mesh()
        m.traverse(0, 1, flits=1, now=100)  # link busy over [100, 101)
        # a message reaching the link at 50, before its last arrival,
        # is clamped to arrive at 100 and waits 1 cycle, not 51
        assert m.traverse(0, 1, flits=1, now=50) == m.hop_cycles + 1
        assert m.total_queueing == 1  # the wait at the route's only link
        server = link(m, 0, 1)
        assert server.last_arrival == 100
        assert server.busy_until == 102

    def test_hotspot_detection(self):
        m = mesh()
        for i in range(50):
            m.traverse(0, 3, flits=5, now=i)
        hot = m.hottest_links(horizon=300, top=1)
        (src, dst), util = hot[0]
        assert util > 0.5
        # hottest link must lie on the 0 -> 3 row
        assert src in (0, 1, 2) and dst == src + 1


class TestInlinedLinkRequests:
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15),
                              st.sampled_from((1, 5)), st.integers(0, 400)),
                    min_size=1, max_size=60))
    def test_traverse_matches_fifo_requests_per_link(self, messages):
        """Any message order: the inlined link requests of traverse give
        the latency and link state that FifoServer.request gives."""
        m = mesh()
        twin = [FifoServer(name=f"link/{src}->{dst}", service_time=1)
                for src, dst in m.topology.links()]
        for src, dst, flits, now in messages:
            head = now
            for link_id in m.topology.route_links(src, dst):
                head += twin[link_id].request(head, flits) + m.hop_cycles
            expected = 0 if src == dst else head - now + flits - 1
            assert m.traverse(src, dst, flits, now) == expected
        for pair, theirs in zip(m.topology.links(), twin):
            ours = link(m, *pair)
            assert ours.busy_until == theirs.busy_until
            assert (ours.last_arrival, ours.requests, ours.busy_cycles) == (
                theirs.stats.last_arrival, theirs.stats.requests,
                theirs.stats.busy_cycles)
        assert m.total_queueing == sum(s.stats.wait_cycles for s in twin)
        assert m.total_hops == sum(s.stats.requests for s in twin)


class TestStatistics:
    def test_means(self):
        m = mesh()
        m.traverse(0, 1, flits=1, now=0)
        m.traverse(0, 2, flits=1, now=100)
        assert m.messages == 2
        assert m.mean_hops == 1.5
        assert m.mean_latency > 0

    def test_tile_traffic_tracking(self):
        m = mesh()
        m.traverse(0, 5, flits=5, now=0)
        assert m.tile_traffic[0] == 5
        assert m.tile_traffic[5] == 5

    def test_reset(self):
        m = mesh()
        m.traverse(0, 1, flits=5, now=0)
        m.reset()
        assert m.messages == 0
        assert m.traverse(0, 1, flits=5, now=0) == m.zero_load_latency(0, 1, 5)
        assert m.total_queueing == 0

    def test_link_statistics_after_reset_with_cached_routes(self):
        m = mesh()
        for i in range(20):
            m.traverse(0, 3, flits=5, now=i)  # caches the 0 -> 3 route
        m.reset()
        assert m.link_utilizations(horizon=10) == [0.0] * m.topology.num_links
        m.traverse(0, 3, flits=5, now=0)  # through the cached route
        row = [(0, 1), (1, 2), (2, 3)]
        utils = dict(zip(m.topology.links(), m.link_utilizations(horizon=10)))
        depths = dict(zip(m.topology.links(), m.link_queue_depths(now=0)))
        assert [utils[pair] for pair in row] == [0.5, 0.5, 0.5]
        assert [depths[pair] for pair in row] == [5.0, 9.0, 13.0]
        assert sum(utils.values()) == 1.5
        assert sum(depths.values()) == 27.0
        assert [link(m, *pair).requests for pair in row] == [1, 1, 1]

    def test_route_cache_consistency(self):
        """Cached routes give identical results to fresh computation."""
        m = mesh()
        a = m.zero_load_latency(2, 13, 5)
        m.traverse(2, 13, 5, now=0)
        assert m.traverse(2, 13, 5, now=10_000) == a
