import pytest

from repro.reference import HeapSimulator
from repro.sim.core import Interrupt, SimError


@pytest.fixture
def sim():
    return HeapSimulator()


class TestEvents:
    def test_timeout_fires_at_time(self, sim):
        seen = []
        t = sim.timeout(5.0, value="x")
        t.callbacks.append(lambda ev: seen.append((sim.now, ev.value)))
        sim.run()
        assert seen == [(5.0, "x")]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimError):
            sim.timeout(-1)

    def test_succeed_twice_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(SimError):
            ev.fail("not an exception")

    def test_value_before_outcome(self, sim):
        ev = sim.event()
        with pytest.raises(SimError):
            ev.ok


class TestProcesses:
    def test_sequencing(self, sim):
        log = []

        def proc():
            log.append(("start", sim.now))
            yield sim.timeout(1.0)
            log.append(("mid", sim.now))
            yield sim.timeout(2.0)
            log.append(("end", sim.now))
            return "done"

        p = sim.process(proc())
        result = sim.run(until=p)
        assert result == "done"
        assert log == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]

    def test_yield_from_composition(self, sim):
        def inner():
            yield sim.timeout(1.0)
            return 41

        def outer():
            v = yield from inner()
            return v + 1

        assert sim.run(until=sim.process(outer())) == 42

    def test_exception_propagates_to_waiter(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def waiter():
            try:
                yield sim.process(bad())
            except ValueError as exc:
                return str(exc)

        assert sim.run(until=sim.process(waiter())) == "boom"

    def test_unwaited_crash_surfaces(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise RuntimeError("lost")

        sim.process(bad())
        with pytest.raises(RuntimeError, match="lost"):
            sim.run()

    def test_yielding_non_event_fails(self, sim):
        def bad():
            yield 42

        def waiter():
            with pytest.raises(SimError):
                yield sim.process(bad())

        sim.run(until=sim.process(waiter()))

    def test_waiting_on_fired_event(self, sim):
        ev = sim.event()
        ev.succeed("v")

        def proc():
            got = yield ev
            return got

        p = sim.process(proc())
        sim.run()
        # already-fired events are re-delivered via a zero-delay kick
        assert p.value == "v"

    def test_interrupt(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as i:
                return ("interrupted", i.cause, sim.now)

        p = sim.process(sleeper())

        def killer():
            yield sim.timeout(2.0)
            p.interrupt(cause="stop")

        sim.process(killer())
        sim.run()
        assert p.value == ("interrupted", "stop", 2.0)

    def test_run_until_deadline_advances_clock(self, sim):
        sim.timeout(1.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_deadlock_detection(self, sim):
        def stuck():
            yield sim.event()  # never triggered

        p = sim.process(stuck())
        with pytest.raises(SimError, match="deadlock"):
            sim.run(until=p)

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimError):
            sim.process(lambda: None)  # type: ignore[arg-type]


class TestConditions:
    def test_all_of_collects_values(self, sim):
        def proc():
            events = [sim.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
            values = yield sim.all_of(events)
            return (values, sim.now)

        values, now = sim.run(until=sim.process(proc()))
        assert values == [3.0, 1.0, 2.0]
        assert now == 3.0

    def test_any_of_first_wins(self, sim):
        def proc():
            winner = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
            return (winner.value, sim.now)

        value, now = sim.run(until=sim.process(proc()))
        assert value == "fast"
        assert now == 1.0

    def test_all_of_empty(self, sim):
        def proc():
            values = yield sim.all_of([])
            return values

        assert sim.run(until=sim.process(proc())) == []

    def test_all_of_failure(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise KeyError("k")

        def proc():
            with pytest.raises(KeyError):
                yield sim.all_of([sim.timeout(2.0), sim.process(bad())])

        sim.run(until=sim.process(proc()))


class TestDeterminism:
    def test_same_time_fifo_order(self, sim):
        order = []
        for i in range(10):
            t = sim.timeout(1.0, value=i)
            t.callbacks.append(lambda ev: order.append(ev.value))
        sim.run()
        assert order == list(range(10))

    def test_two_runs_identical(self):
        def trace():
            sim = HeapSimulator()
            log = []

            def proc(name, delay):
                yield sim.timeout(delay)
                log.append((name, sim.now))
                yield sim.timeout(delay)
                log.append((name, sim.now))

            for i in range(5):
                sim.process(proc(f"p{i}", 1.0 + i * 0.5))
            sim.run()
            return log

        assert trace() == trace()
