import pytest

from repro.net.fabric import Fabric
from repro.reference import HeapSimulator
from repro.sim.core import SimError

BW = 1000.0  # bytes/sec — round numbers make assertions exact
LAT = 0.001


@pytest.fixture
def sim():
    return HeapSimulator()


@pytest.fixture
def fabric(sim):
    return Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)


def run_transfer(sim, fabric, flows):
    """Start flows [(src, dst, nbytes)], return completion times."""
    done = [fabric.start_flow(*f) for f in flows]
    times = {}
    for i, ev in enumerate(done):
        ev.callbacks.append(lambda e, i=i: times.__setitem__(i, sim.now))
    sim.run()
    return times


class TestSingleFlow:
    def test_duration_is_latency_plus_transfer(self, sim, fabric):
        times = run_transfer(sim, fabric, [(0, 1, 500)])
        assert times[0] == pytest.approx(500 / BW + LAT)

    def test_zero_bytes_is_latency_only(self, sim, fabric):
        times = run_transfer(sim, fabric, [(0, 1, 0)])
        assert times[0] == pytest.approx(LAT)

    def test_loopback_faster_than_network(self, sim, fabric):
        t_local = run_transfer(sim, fabric, [(0, 0, 1000)])[0]
        sim2 = HeapSimulator()
        f2 = Fabric(sim2, 4, BW, LAT)
        t_remote = run_transfer(sim2, f2, [(0, 1, 1000)])[0]
        assert t_local < t_remote


class TestFairSharing:
    def test_two_flows_same_link_half_rate(self, sim, fabric):
        times = run_transfer(sim, fabric, [(0, 1, 500), (0, 2, 500)])
        # Both share node 0's out link: each gets BW/2.
        assert times[0] == pytest.approx(1000 / BW + LAT)
        assert times[1] == pytest.approx(1000 / BW + LAT)

    def test_disjoint_flows_full_rate(self, sim, fabric):
        times = run_transfer(sim, fabric, [(0, 1, 500), (2, 3, 500)])
        assert times[0] == pytest.approx(500 / BW + LAT)
        assert times[1] == pytest.approx(500 / BW + LAT)

    def test_incast_shares_receiver(self, sim, fabric):
        # 3 senders into node 3: receiver NIC is the bottleneck at BW/3.
        times = run_transfer(sim, fabric, [(0, 3, 300), (1, 3, 300), (2, 3, 300)])
        for i in range(3):
            assert times[i] == pytest.approx(900 / BW + LAT)

    def test_rate_increases_after_completion(self, sim, fabric):
        # Short flow shares then finishes; long flow speeds up.
        times = run_transfer(sim, fabric, [(0, 1, 100), (0, 2, 1000)])
        # Phase 1: both at 500 B/s until short done at t=0.2 (100/500).
        # Phase 2: long has 900 left at 1000 B/s -> +0.9 -> 1.1 total.
        assert times[0] == pytest.approx(0.2 + LAT)
        assert times[1] == pytest.approx(1.1 + LAT)

    def test_max_min_with_unequal_bottlenecks(self, sim, fabric):
        # f1: 0->1, f2: 0->1 as well plus f3: 2->1.  Receiver link node1
        # carries 3 flows (333 each); node0 out carries 2 (<=500 each) so
        # receiver is the bottleneck for all three.
        times = run_transfer(sim, fabric, [(0, 1, 333), (0, 1, 333), (2, 1, 333)])
        for i in range(3):
            assert times[i] == pytest.approx(333 / (BW / 3) + LAT, rel=1e-3)


class TestCustomLinks:
    def test_extra_link_caps_rate(self, sim, fabric):
        channel = fabric.make_link("chan", 100.0)
        done = fabric.start_flow(0, 1, 100, extra_links=(channel,))
        sim.run()
        assert sim.now == pytest.approx(100 / 100.0 + LAT)

    def test_shared_extra_link(self, sim, fabric):
        ingest = fabric.make_link("ingest", 200.0)
        d1 = fabric.start_flow(0, 2, 100, extra_links=(ingest,))
        d2 = fabric.start_flow(1, 2, 100, extra_links=(ingest,))
        sim.run()
        # Two flows share the 200 B/s ingest: 100 bytes at 100 B/s each.
        assert sim.now == pytest.approx(1.0 + LAT)


class TestAccounting:
    def test_bytes_moved(self, sim, fabric):
        run_transfer(sim, fabric, [(0, 1, 500), (1, 2, 250)])
        assert fabric.bytes_moved == 750

    def test_flows_drain(self, sim, fabric):
        run_transfer(sim, fabric, [(0, 1, 500)])
        assert fabric.active_flows == 0

    def test_many_small_flows_terminate(self, sim, fabric):
        # Regression: accumulated FP error in water-filling must not stall
        # the clock (the fabric-wake livelock).
        flows = [(i % 4, (i + 1) % 4, 7) for i in range(64)]
        run_transfer(sim, fabric, flows)
        assert fabric.active_flows == 0
        assert sim.now < 10.0


class TestBadInput:
    """``start_flow`` refuses what would misroute, divide by zero, never
    finish or finish at once, with a ``SimError`` naming it."""

    def test_negative_src_node(self, fabric):
        # An index of -1 would route over the last node's NIC.
        with pytest.raises(SimError, match="src_node -1"):
            fabric.start_flow(-1, 0, 100)

    def test_dst_node_past_the_last(self, fabric):
        with pytest.raises(SimError, match="dst_node 5"):
            fabric.start_flow(0, 5, 100)

    def test_zero_weight(self, fabric):
        with pytest.raises(SimError, match="weight"):
            fabric.start_flow(0, 1, 100, weight=0)

    def test_nan_nbytes(self, fabric):
        # It would never complete, and the run would deadlock later.
        with pytest.raises(SimError, match="nbytes"):
            fabric.start_flow(0, 1, float("nan"))

    def test_infinite_nbytes(self, fabric):
        # Its finish threshold would be inf: it would "complete" at once.
        with pytest.raises(SimError, match="nbytes"):
            fabric.start_flow(0, 1, float("inf"))

    def test_negative_nbytes(self, fabric):
        with pytest.raises(SimError, match="nbytes"):
            fabric.start_flow(0, 1, -1, on_done=lambda: None)

    def test_refused_input_starts_nothing(self, sim, fabric):
        with pytest.raises(SimError):
            fabric.start_flow(0, 4, 100)
        assert fabric.active_flows == 0 and fabric.bytes_moved == 0
        assert not sim.pending
