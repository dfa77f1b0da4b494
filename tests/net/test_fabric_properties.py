"""Property-based checks of the max-min fair fabric."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fabric import Fabric
from repro.reference import HeapSimulator

BW = 1000.0
LAT = 0.0  # keep completion-time arithmetic exact

flows_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 5000)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(flows_strategy)
def test_all_flows_complete_and_respect_capacity(flows):
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    done = [fabric.start_flow(s, d, n) for s, d, n in flows]
    times = {}
    for i, ev in enumerate(done):
        ev.callbacks.append(lambda e, i=i: times.__setitem__(i, sim.now))
    sim.run()
    assert fabric.active_flows == 0
    assert len(times) == len(flows)

    # Lower bound per flow: its own bytes at full link speed (loopback is
    # faster than the NIC, so use the applicable capacity).
    for i, (s, d, n) in enumerate(flows):
        cap = fabric.loopback_bw if s == d else BW
        assert times[i] >= n / cap - 1e-9

    # Aggregate lower bound per NIC direction: a node cannot emit (or
    # absorb) faster than its NIC.
    makespan = max(times.values())
    for node in range(4):
        out_bytes = sum(n for s, d, n in flows if s == node and d != node)
        in_bytes = sum(n for s, d, n in flows if d == node and s != node)
        assert makespan >= out_bytes / BW - 1e-9
        assert makespan >= in_bytes / BW - 1e-9


@settings(max_examples=50, deadline=None)
@given(flows_strategy)
def test_byte_accounting(flows):
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    for s, d, n in flows:
        fabric.start_flow(s, d, n)
    sim.run()
    assert fabric.bytes_moved == sum(n for _, _, n in flows)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 2000), min_size=2, max_size=8))
def test_identical_flows_finish_together(sizes):
    """Equal flows over the same links share fairly: same size -> same time."""
    sim = HeapSimulator()
    fabric = Fabric(sim, num_nodes=4, nic_bw=BW, latency=LAT)
    n = max(sizes)
    done = [fabric.start_flow(0, 1, n) for _ in range(3)]
    times = {}
    for i, ev in enumerate(done):
        ev.callbacks.append(lambda e, i=i: times.__setitem__(i, sim.now))
    sim.run()
    assert max(times.values()) - min(times.values()) < 1e-9
