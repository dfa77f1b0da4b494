"""MPI-style matching and ordering over both transports: the bundling one
(production ``Fabric``: same-instant sends between a node pair join one
flow) and the per-send one (``NaiveFabric``: one flow per send).  Every
matching test runs on both (``TestMatching`` / ``TestMatchingPerSend``),
and the same traffic delivers the same payloads in the same order at the
same instants on either."""

import pytest

from repro.net.fabric import Fabric
from repro.net.message import ANY_SOURCE, ANY_TAG, Transport
from repro.reference import HeapSimulator, NaiveFabric


def build(fabric_class):
    sim = HeapSimulator()
    fabric = fabric_class(sim, num_nodes=2, nic_bw=1e6, latency=1e-4)
    transport = Transport(sim, fabric, rank_to_node=[0, 0, 1, 1], per_message_overhead=1e-6)
    return sim, transport


@pytest.fixture
def setup(request):
    """The transport over the test class's fabric (``FABRIC``)."""
    return build(request.cls.FABRIC)


class TestMatching:
    FABRIC = Fabric
    def test_send_recv(self, setup):
        sim, tp = setup

        def receiver():
            msg = yield tp.post_recv(2, source=0, tag=5)
            return (msg.payload, msg.source, msg.tag)

        def sender():
            yield tp.send(0, 2, 5, "hello", 100)

        p = sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert p.value == ("hello", 0, 5)

    def test_unexpected_message_queued(self, setup):
        sim, tp = setup

        def sender():
            yield tp.send(0, 2, 9, "early", 10)

        def receiver():
            yield sim.timeout(1.0)  # recv posted long after arrival
            msg = yield tp.post_recv(2, source=0, tag=9)
            return msg.payload

        sim.process(sender())
        p = sim.process(receiver())
        sim.run()
        assert p.value == "early"

    def test_wildcard_source(self, setup):
        sim, tp = setup

        def receiver():
            msg = yield tp.post_recv(3, source=ANY_SOURCE, tag=1)
            return msg.source

        def sender():
            yield tp.send(1, 3, 1, "x", 10)

        p = sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert p.value == 1

    def test_wildcard_tag(self, setup):
        sim, tp = setup

        def receiver():
            msg = yield tp.post_recv(2, source=0, tag=ANY_TAG)
            return msg.tag

        def sender():
            yield tp.send(0, 2, 77, "x", 10)

        p = sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert p.value == 77

    def test_tag_filtering(self, setup):
        sim, tp = setup

        def receiver():
            msg_b = yield tp.post_recv(2, source=0, tag=2)
            msg_a = yield tp.post_recv(2, source=0, tag=1)
            return (msg_b.payload, msg_a.payload)

        def sender():
            yield tp.send(0, 2, 1, "a", 10)
            yield tp.send(0, 2, 2, "b", 10)

        p = sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert p.value == ("b", "a")

    def test_non_overtaking_same_pair_same_tag(self, setup):
        sim, tp = setup
        got = []

        def receiver():
            for _ in range(5):
                msg = yield tp.post_recv(2, source=0, tag=0)
                got.append(msg.payload)

        def sender():
            for i in range(5):
                yield tp.send(0, 2, 0, i, 1000)

        sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_intra_node_message(self, setup):
        sim, tp = setup

        def receiver():
            msg = yield tp.post_recv(1, source=0, tag=0)
            return msg.payload

        def sender():
            yield tp.send(0, 1, 0, "local", 10)

        p = sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert p.value == "local"

    def test_messages_sent_counter(self, setup):
        sim, tp = setup

        def sender():
            yield tp.send(0, 2, 0, "x", 10)
            yield tp.send(0, 3, 0, "y", 10)

        sim.process(sender())
        sim.process(iter_recv(tp, sim))
        sim.run()
        assert tp.messages_sent == 2


def iter_recv(tp, sim):
    yield tp.post_recv(2)
    yield tp.post_recv(3)


class TestMatchingPerSend(TestMatching):
    FABRIC = NaiveFabric


def burst(fabric_class):
    """Same-instant sends between both node pairs, some of one size (a
    bundle on a bundling fabric), received out of send order: what each
    receive got, when, and how many sends joined a bundle."""
    sim, tp = build(fabric_class)
    got = []

    def sender(rank, dest):
        sends = [tp.send(rank, dest, tag, (rank, tag), 4096) for tag in range(3)]
        sends.append(tp.send(rank, dest, 3, (rank, 3), 100))
        yield sim.all_of(sends)

    def receiver(rank):
        for source, tag in ((ANY_SOURCE, 2), (ANY_SOURCE, ANY_TAG), (0, 0), (1, ANY_TAG)):
            msg = yield tp.post_recv(rank, source, tag)
            got.append((sim.now, rank, msg.source, msg.tag, msg.payload, msg.seq))
        for _ in range(4):
            msg = yield tp.post_recv(rank, ANY_SOURCE, ANY_TAG)
            got.append((sim.now, rank, msg.source, msg.tag, msg.payload, msg.seq))

    for rank in (0, 1):
        sim.process(sender(rank, 2 + rank))
        sim.process(sender(rank, 3 - rank))
    for rank in (2, 3):
        sim.process(receiver(rank))
    sim.run()
    return got, tp.sends_coalesced


def test_bundling_changes_no_payload_order_or_instant():
    bundled, coalesced = burst(Fabric)
    per_send, none = burst(NaiveFabric)
    assert len(bundled) == 16 and bundled == per_send
    assert coalesced > 0 and none == 0
