"""The array kernel's rate-memo key partitions components exactly as the
flat key it replaced.

``flat_key`` below is the previous builder, kept verbatim as the reference:
per flow its weight and link count, then per link the local id of an
already-seen link or ``-1`` and the capacity of a first-touch link.  The
kernel's key opens each flow with ``-2`` instead of counting its links and
is built without method calls.  Two components must get equal new keys
exactly when they got equal old keys — one missed collision class would
hand a component another topology's rates, one extra class would only cost
hits.
"""

import random
from itertools import combinations

from repro.net.fabric import Fabric, Flow, Link
from repro.reference import HeapSimulator


def flat_key(flow_list):
    lids, ncaps, key = {}, 0, []
    for flow in flow_list:
        key.append(flow.weight)
        key.append(len(flow.links))
        for link in flow.links:
            li = lids.get(link)
            if li is None:
                lids[link] = ncaps
                ncaps += 1
                key.append(-1)
                key.append(link.capacity)
            else:
                key.append(li)
    return tuple(key)


class _Spy(dict):
    """A rate cache that always misses and remembers the key it was asked."""

    def get(self, sig, default=None):
        self.sig = sig
        return default


def new_key(flow_list):
    fabric = Fabric(HeapSimulator(), num_nodes=2, nic_bw=1.0, latency=0.0)
    fabric._rate_cache = spy = _Spy()
    fabric._fill(flow_list)
    return spy.sig


CAPS = [1000.0, 500.0]


def random_component(rng):
    """A few flows over a small link pool: NIC-style pairs, one-link
    loopbacks, shared extra links, bundles, and drifting capacities."""
    pool = [Link(f"l{i}", rng.choice(CAPS)) for i in range(rng.randint(2, 4))]
    flows = []
    for fid in range(rng.randint(2, 3)):
        if rng.random() < 0.25:
            links = [rng.choice(pool)]  # loopback: one link
        else:
            links = rng.sample(pool, 2)  # out + in
        if rng.random() < 0.4:
            links = links + [rng.choice(pool)]  # shared extra link (may repeat)
        weight = rng.choice([1, 1, 1, 2])
        flows.append(Flow(fid, links, 100.0, done=None, weight=weight))
    return pool, flows


def twin(flows):
    """The same shape over fresh flow and link objects."""
    fresh = {}
    for flow in flows:
        for link in flow.links:
            fresh.setdefault(link, Link("t" + link.name, link.capacity))
    return [
        Flow(100 + f.fid, [fresh[link] for link in f.links], 7.0, None, weight=f.weight)
        for f in flows
    ]


def test_new_keys_collide_exactly_when_old_keys_do():
    rng = random.Random(2016)
    keyed = []
    for _ in range(300):
        pool, flows = random_component(rng)
        keyed.append((flat_key(flows), new_key(flows)))
        keyed.append((flat_key(twin(flows)), new_key(twin(flows))))
        # A capacity change mid-flight re-keys the same flows.
        rng.choice(pool).capacity = rng.choice(CAPS + [250.0])
        keyed.append((flat_key(flows), new_key(flows)))
    collisions = 0
    for (old_a, new_a), (old_b, new_b) in combinations(keyed, 2):
        assert (old_a == old_b) == (new_a == new_b), (old_a, old_b, new_a, new_b)
        collisions += old_a == old_b
    # Both outcomes were seen often: every twin collides, most pairs do not.
    assert 300 <= collisions < len(keyed) * (len(keyed) - 1) // 4


def test_key_reads_what_the_old_key_read():
    """Weight, link count, link sharing and capacity each split keys;
    flow identity, link identity and byte counts do not."""
    a, b, c = Link("a", 10.0), Link("b", 10.0), Link("c", 5.0)

    def key(*specs):
        return new_key([Flow(i, links, 1.0, None, weight=w) for i, (links, w) in enumerate(specs)])

    base = key(([a, b], 1), ([a, c], 1))
    x, y, z = Link("x", 10.0), Link("y", 10.0), Link("z", 5.0)
    assert base == key(([x, y], 1), ([x, z], 1))  # other objects, same shape
    assert base != key(([a, b], 2), ([a, c], 1))  # weight
    assert base != key(([a, b], 1), ([a], 1))  # link count
    assert base != key(([a, b], 1), ([b, c], 1))  # which link is shared
    assert base != key(([a, b], 1), ([a, b], 1))  # sharing vs first touch
    assert base != key(([a, b], 1), ([a, Link("c2", 6.0)], 1))  # capacity
