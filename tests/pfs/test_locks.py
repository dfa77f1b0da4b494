import pytest

from repro.pfs.locks import LockManager
from repro.reference import HeapSimulator
from repro.sim.core import SimError


@pytest.fixture
def sim():
    return HeapSimulator()


@pytest.fixture
def locks(sim):
    return LockManager(sim, lock_rpc_time=0.001)


class TestExclusive:
    def test_acquire_release(self, sim, locks):
        def proc():
            yield locks.acquire(1, 0)
            assert locks.held(1, 0) == "write"
            locks.release(1, 0)
            assert locks.held(1, 0) == "free"

        sim.run(until=sim.process(proc()))

    def test_contention_serialises(self, sim, locks):
        order = []

        def user(name, hold):
            yield locks.acquire(1, 5)
            order.append((name, sim.now))
            yield sim.timeout(hold)
            locks.release(1, 5)

        sim.process(user("a", 1.0))
        sim.process(user("b", 1.0))
        sim.run()
        assert order[0][0] == "a"
        assert order[1][1] >= 1.0

    def test_different_stripes_independent(self, sim, locks):
        times = []

        def user(stripe):
            yield locks.acquire(1, stripe)
            yield sim.timeout(1.0)
            locks.release(1, stripe)
            times.append(sim.now)

        sim.process(user(0))
        sim.process(user(1))
        sim.run()
        assert max(times) < 1.1  # no serialisation

    def test_different_files_independent(self, sim, locks):
        def proc():
            yield locks.acquire(1, 0)
            yield locks.acquire(2, 0)
            locks.release(1, 0)
            locks.release(2, 0)

        sim.run(until=sim.process(proc()))

    def test_release_unheld_rejected(self, sim, locks):
        with pytest.raises(SimError):
            locks.release(1, 0)

    def test_lock_rpc_cost_charged(self, sim, locks):
        def proc():
            yield locks.acquire(1, 0)
            locks.release(1, 0)

        sim.run(until=sim.process(proc()))
        assert sim.now == pytest.approx(0.001)


class TestSharedReaders:
    def test_readers_coexist(self, sim, locks):
        def reader():
            yield locks.acquire(1, 0, exclusive=False)
            yield sim.timeout(1.0)
            locks.release(1, 0, exclusive=False)
            return sim.now

        p1 = sim.process(reader())
        p2 = sim.process(reader())
        sim.run()
        assert p1.value == p2.value  # concurrent

    def test_writer_blocks_readers(self, sim, locks):
        def writer():
            yield locks.acquire(1, 0)
            yield sim.timeout(2.0)
            locks.release(1, 0)

        def reader():
            yield sim.timeout(0.1)
            yield locks.acquire(1, 0, exclusive=False)
            locks.release(1, 0, exclusive=False)
            return sim.now

        sim.process(writer())
        p = sim.process(reader())
        sim.run()
        assert p.value >= 2.0

    def test_readers_block_writer(self, sim, locks):
        def reader():
            yield locks.acquire(1, 0, exclusive=False)
            yield sim.timeout(3.0)
            locks.release(1, 0, exclusive=False)

        def writer():
            yield sim.timeout(0.1)
            yield locks.acquire(1, 0)
            locks.release(1, 0)
            return sim.now

        sim.process(reader())
        p = sim.process(writer())
        sim.run()
        assert p.value >= 3.0

    def test_fifo_fairness_no_writer_starvation(self, sim, locks):
        """A queued writer blocks later readers (FIFO granting)."""
        order = []

        def reader(name, start):
            yield sim.timeout(start)
            yield locks.acquire(1, 0, exclusive=False)
            order.append(name)
            yield sim.timeout(1.0)
            locks.release(1, 0, exclusive=False)

        def writer():
            yield sim.timeout(0.5)
            yield locks.acquire(1, 0)
            order.append("w")
            locks.release(1, 0)

        sim.process(reader("r1", 0.0))
        sim.process(writer())
        sim.process(reader("r2", 0.7))  # posted after the writer queued
        sim.run()
        assert order == ["r1", "w", "r2"]

    def test_contended_counter(self, sim, locks):
        def a():
            yield locks.acquire(1, 0)
            yield sim.timeout(1.0)
            locks.release(1, 0)

        def b():
            yield sim.timeout(0.1)
            yield locks.acquire(1, 0)
            locks.release(1, 0)

        sim.process(a())
        sim.process(b())
        sim.run()
        assert locks.acquires == 2
        assert locks.contended_acquires == 1
