"""A storage device refuses a request size that is negative, infinite or
NaN, naming ``nbytes``, before it queues or accounts anything; and its flat
requests take and give back their queue slot on ``Resource``'s terms."""

import math

import pytest

from repro.hw.devices import SSDDevice
from repro.reference import HeapSimulator
from repro.sim.core import SimError, Simulator

BAD_SIZES = [-4096, -1, math.nan, math.inf]


def ssd(sim):
    return SSDDevice(sim, "ssd", 1 << 20, 1 << 20, latency=1e-4, capacity_bytes=1 << 40)


def untouched(dev):
    return (
        dev.queue.in_use,
        dev.queue.queue_len,
        dev.requests_served,
        dev.bytes_written,
        dev.bytes_read,
        dev.busy_time,
    ) == (0, 0, 0, 0, 0, 0.0)


@pytest.mark.parametrize("nbytes", BAD_SIZES)
def test_flat_requests_refuse_a_bad_size(nbytes):
    sim = Simulator()
    dev = ssd(sim)
    with pytest.raises(SimError, match="nbytes"):
        dev.write_flat(0, nbytes, lambda: None, sim.event())
    with pytest.raises(SimError, match="nbytes"):
        dev.read_flat(0, nbytes, lambda _error: None, sim.event())
    sim.run()
    assert untouched(dev)


@pytest.mark.parametrize("nbytes", BAD_SIZES)
def test_generator_requests_refuse_a_bad_size(nbytes):
    sim = Simulator()
    dev = ssd(sim)
    for request in (dev.write, dev.read):
        proc = sim.process(request(0, nbytes))
        with pytest.raises(SimError, match="nbytes"):
            sim.run(until=proc)
    assert untouched(dev)


def test_an_empty_request_is_served():
    sim = Simulator()
    dev = ssd(sim)
    served = []
    dev.write_flat(0, 0, lambda: served.append(sim.now), sim.event())
    sim.run()
    assert served == [pytest.approx(1e-4)] and dev.requests_served == 1
    assert dev.queue.in_use == 0


@pytest.mark.parametrize("engine", [HeapSimulator, Simulator], ids=["heapq", "slotted"])
def test_a_free_queue_grants_in_place_only_on_the_slotted_engine(engine):
    """The slotted engine serves a request on a free queue inside the call;
    the heapq engine (the reference stack's) never grants inline, so the
    service starts on the grant's scheduled call."""
    sim = engine()
    dev = ssd(sim)
    dev.write_flat(0, 4096, lambda: None, sim.event())
    assert dev.queue.in_use == 1
    assert dev.requests_served == (1 if engine is Simulator else 0)
    sim.run()
    assert dev.requests_served == 1 and dev.queue.in_use == 0


def test_queued_requests_are_handed_the_slot_in_order():
    sim = Simulator()
    dev = ssd(sim)
    order = []
    for k in range(3):
        dev.write_flat(
            k * 4096, 4096, lambda k=k: order.append((k, dev.queue.queue_len)), sim.event()
        )
    assert (dev.queue.in_use, dev.queue.queue_len) == (1, 2)
    sim.run()
    assert order == [(0, 1), (1, 0), (2, 0)]
    assert (dev.queue.in_use, dev.queue.queue_len) == (0, 0)


def test_giving_back_an_idle_slot_is_still_an_error():
    """A request whose slot was already given back reaches
    ``Resource.release``, which refuses an idle queue by name."""
    sim = Simulator()
    dev = ssd(sim)
    dev.write_flat(0, 4096, lambda: None, sim.event())
    dev.queue._in_use = 0
    with pytest.raises(SimError, match="idle resource 'dev:ssd'"):
        sim.run()
