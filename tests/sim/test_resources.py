import pytest

from repro.reference import HeapSimulator
from repro.sim.core import SimError
from repro.sim.resources import Resource, Store


@pytest.fixture
def sim():
    return HeapSimulator()


class TestResource:
    def test_fifo_granting(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(name, hold):
            yield res.request()
            order.append((name, sim.now))
            yield sim.timeout(hold)
            res.release()

        for i in range(3):
            sim.process(user(i, 2.0))
        sim.run()
        assert order == [(0, 0.0), (1, 2.0), (2, 4.0)]

    def test_capacity_two(self, sim):
        res = Resource(sim, capacity=2)
        starts = []

        def user(i):
            yield res.request()
            starts.append((i, sim.now))
            yield sim.timeout(1.0)
            res.release()

        for i in range(4):
            sim.process(user(i))
        sim.run()
        assert starts == [(0, 0.0), (1, 0.0), (2, 1.0), (3, 1.0)]

    def test_release_idle_rejected(self, sim):
        res = Resource(sim)
        with pytest.raises(SimError):
            res.release()

    def test_queue_len(self, sim):
        res = Resource(sim, capacity=1)

        def holder():
            yield res.request()
            yield sim.timeout(10.0)
            res.release()

        def waiter():
            yield res.request()
            res.release()

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=1.0)
        assert res.in_use == 1
        assert res.queue_len == 1

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimError):
            Resource(sim, capacity=0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("a")

        def getter():
            item = yield store.get()
            return item

        assert sim.run(until=sim.process(getter())) == "a"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def getter():
            item = yield store.get()
            return (item, sim.now)

        def putter():
            yield sim.timeout(3.0)
            store.put("late")

        p = sim.process(getter())
        sim.process(putter())
        sim.run()
        assert p.value == ("late", 3.0)

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        got = []

        def getter():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.run(until=sim.process(getter()))
        assert got == [0, 1, 2, 3, 4]
