"""NoC calibration — analytical mesh vs. flit-level router model.

Not a paper figure: this bench validates the substitution documented in
DESIGN.md.  The consolidation simulations use the fast analytical mesh
(per-link FIFO queues, 4-cycle hops); the flit-level 3-stage
speculative-VC router network is the reference.  Uniform-random traffic
is driven through both at matched injection rates and the zero-load and
loaded latencies are compared.
"""

import pytest

from _common import BENCH_SEED, emit, once
from repro.analysis.report import format_table
from repro.interconnect.analytical import AnalyticalMesh
from repro.interconnect.network import FlitNetwork
from repro.interconnect.packet import Packet
from repro.interconnect.topology import MeshTopology
from repro.sim.rng import RngFactory


def drive_flit_network(pairs, flits, gap):
    net = FlitNetwork(MeshTopology(4, 4))
    time = 0
    for src, dst in pairs:
        net.run(gap)
        time += gap
        net.inject(Packet(src=src, dst=dst, num_flits=flits,
                          inject_time=time))
    net.drain()
    return net.mean_packet_latency


def drive_analytical(pairs, flits, gap):
    mesh = AnalyticalMesh(MeshTopology(4, 4))
    total = 0
    time = 0
    for src, dst in pairs:
        time += gap
        total += mesh.traverse(src, dst, flits, time)
    return total / len(pairs)


@pytest.fixture(scope="module")
def traffic():
    rng = RngFactory(BENCH_SEED).stream("noc")
    pairs = []
    while len(pairs) < 400:
        src, dst = int(rng.integers(16)), int(rng.integers(16))
        if src != dst:
            pairs.append((src, dst))
    return pairs


def test_noc_calibration(benchmark, traffic):
    def build():
        rows = []
        for label, flits, gap in (("light/control", 1, 40),
                                  ("light/data", 5, 40),
                                  ("loaded/data", 5, 6)):
            flit_lat = drive_flit_network(traffic, flits, gap)
            ana_lat = drive_analytical(traffic, flits, gap)
            rows.append([label, flit_lat, ana_lat,
                         ana_lat / flit_lat if flit_lat else 0.0])
        return rows

    rows = once(benchmark, build)
    emit("noc_calibration", format_table(
        ["traffic", "flit-level (cyc)", "analytical (cyc)", "ratio"],
        rows, title="NoC calibration: analytical vs flit-level mesh"))

    for label, flit_lat, ana_lat, ratio in rows:
        # the fast model tracks the reference within 2x both ways
        assert 0.5 < ratio < 2.0, (label, ratio)

    # both models agree that load increases latency
    light = rows[1]
    loaded = rows[2]
    assert loaded[1] > light[1]


def test_noc_zero_load_agreement(benchmark):
    """Per-distance zero-load latency of both models, single packets."""
    def build():
        mesh = AnalyticalMesh(MeshTopology(4, 4))
        rows = []
        for dst, hops in ((1, 1), (3, 3), (15, 6)):
            net = FlitNetwork(MeshTopology(4, 4))
            packet = Packet(src=0, dst=dst, num_flits=5)
            net.inject(packet)
            net.drain()
            rows.append([hops, packet.latency,
                         mesh.zero_load_latency(0, dst, 5)])
        return rows

    rows = once(benchmark, build)
    emit("noc_zero_load", format_table(
        ["hops", "flit-level", "analytical"], rows,
        title="Zero-load latency by distance (5-flit data packets)"))

    for hops, flit_lat, ana_lat in rows:
        assert abs(flit_lat - ana_lat) <= max(4, 0.5 * flit_lat), (
            f"{hops} hops: {flit_lat} vs {ana_lat}")
    # latency grows with distance in both models
    assert rows[0][1] < rows[2][1]
    assert rows[0][2] < rows[2][2]
