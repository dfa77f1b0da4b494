"""Max-min fair rates against exact water-filling.

The oracle below shares no code with :mod:`repro.net.fabric`: it fills
over :class:`fractions.Fraction` (every float capacity converts exactly),
freezes every flow of every link that ties for the smallest fair share at
once, and checks its own answer against the definition of max-min
fairness — every link within capacity, every flow crossing a saturated
link on which no flow gets more.  Both allocators, the incremental
:class:`~repro.net.fabric.Fabric` and the reference
:class:`~repro.reference.NaiveFabric`, must match it on seeded random
topologies of at most 6 flows with NIC pairs, loopbacks, extra links and
bundle weights.
"""

import random
from fractions import Fraction

import pytest

from repro.net.fabric import Fabric
from repro.reference import HeapSimulator, NaiveFabric
from repro.sim.core import Simulator

BW = 1000.0
BIG = 1e15  # bytes per member: nothing completes while rates are sampled


def water_fill(flows):
    """Exact max-min rates per member: ``flows`` is ``{key: (weight,
    [(link, capacity), ...])}``; returns ``{key: Fraction}``."""
    residual = {}
    for _weight, links in flows.values():
        for link, capacity in links:
            residual[link] = Fraction(capacity)
    crosses = {key: dict(links) for key, (_weight, links) in flows.items()}
    rates = {}
    while len(rates) < len(flows):
        shares = {}
        for link in residual:
            members = [k for k in flows if k not in rates and link in crosses[k]]
            if members:
                shares[link] = residual[link] / sum(flows[k][0] for k in members)
        if not shares:
            for key in flows:
                rates.setdefault(key, Fraction(0))  # a flow on no link
            break
        level = min(shares.values())
        frozen = [
            key
            for key, (_weight, links) in flows.items()
            if key not in rates and any(shares.get(link) == level for link, _c in links)
        ]
        for key in frozen:
            rates[key] = level
            weight, links = flows[key]
            for link, _capacity in links:
                residual[link] -= level * weight
    return rates


def assert_max_min_fair(flows, rates):
    """The oracle's own check: feasible, and every flow has a bottleneck."""
    load, capacity = {}, {}
    for key, (weight, links) in flows.items():
        for link, cap in links:
            load[link] = load.get(link, 0) + rates[key] * weight
            capacity[link] = Fraction(cap)
    assert all(load[link] <= capacity[link] for link in load)
    for key, (_weight, links) in flows.items():
        assert any(
            load[link] == capacity[link]
            and all(
                rates[other] <= rates[key]
                for other, (_weight, crossed) in flows.items()
                if link in dict(crossed)
            )
            for link, _cap in links
        ), key


def random_topology(rng):
    """(num_nodes, node bw factors, aux capacities, flow specs) — at most 6
    flows, each ``(src, dst, aux indices, weight)``."""
    nodes = rng.randint(2, 4)
    factors = [rng.choice([1.0, 1.0, 0.5, rng.uniform(0.2, 1.5)]) for _ in range(nodes)]
    caps = [BW / 2, BW, 3 * BW]
    aux = [rng.choice([*caps, rng.uniform(100.0, 2000.0)]) for _ in range(3)]
    specs = []
    for _ in range(rng.randint(1, 6)):
        src, dst = rng.randrange(nodes), rng.randrange(nodes)
        extra = rng.sample(range(len(aux)), rng.choice([0, 0, 1, 2]))
        specs.append((src, dst, extra, rng.choice([1, 1, 1, 2, 3])))
    return nodes, factors, aux, specs


def build(cls, sim, topology, rng):
    """Start ``topology``'s flows on a ``cls`` fabric, some at one instant
    (coalesced) and some alone after a step of the clock (rated where they
    start); returns the fabric and the oracle's input keyed by fid."""
    nodes, factors, aux_caps, specs = topology
    fabric = cls(sim, num_nodes=nodes, nic_bw=BW, latency=1e-6)
    for node, factor in enumerate(factors):
        if factor != 1.0:
            fabric.set_node_bw_factor(node, factor)
    aux = [fabric.make_link(f"aux{i}", cap) for i, cap in enumerate(aux_caps)]
    oracle_in = {}
    for fid, (src, dst, extra, weight) in enumerate(specs):
        if rng.random() < 0.4:
            sim.run(until=sim.now + 1e-9)
        links = [aux[i] for i in extra]
        fabric.start_flow(src, dst, BIG, extra_links=tuple(links), weight=weight)
        if src == dst:
            nic = [(f"loop{src}", fabric.loopback_bw)]
        else:
            nic = [(f"out{src}", BW * factors[src]), (f"in{dst}", BW * factors[dst])]
        oracle_in[fid] = (weight, nic + [(f"aux{i}", aux_caps[i]) for i in extra])
    sim.run(until=sim.now + 1e-9)  # the last flush has run
    return fabric, oracle_in


def assert_close(got, want):
    assert got.keys() == want.keys()
    for fid, rate in want.items():
        assert got[fid] == pytest.approx(float(rate), rel=1e-12, abs=1e-9), fid


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "cls, sim_cls",
    [(Fabric, Simulator), (NaiveFabric, HeapSimulator)],
    ids=["fabric", "naive"],
)
def test_rates_match_exact_water_filling(cls, sim_cls, seed):
    """25 topologies a seed: the rates each allocator runs on (incremental
    for ``Fabric``) and those of a fresh ``flow_rates()`` fill both equal
    the exact max-min rates up to float rounding."""
    rng = random.Random(seed)
    for _ in range(25):
        topology = random_topology(rng)
        fabric, oracle_in = build(cls, sim_cls(), topology, random.Random(rng.random()))
        want = water_fill(oracle_in)
        assert_max_min_fair(oracle_in, want)
        assert_close({flow.fid: flow.rate for flow in fabric._flows}, want)
        assert_close(fabric.flow_rates(), want)


def test_the_oracle_tells_weights_from_flows():
    """The oracle is not vacuous: a bundle of 3 and a single flow from one
    NIC get a quarter each, where 2 flows would get half."""
    flows = {0: (3, [("out0", BW), ("in1", BW)]), 1: (1, [("out0", BW), ("in2", BW)])}
    rates = water_fill(flows)
    assert rates == {0: Fraction(250), 1: Fraction(250)}
    assert_max_min_fair(flows, rates)
    with pytest.raises(AssertionError):
        # flow 1 would have no bottleneck
        assert_max_min_fair(flows, {0: Fraction(250), 1: Fraction(200)})
