"""Only a waiting process gets an Event: the primitives behind the rule.

* :meth:`Simulator.cancel` takes a future-instant call off the event
  list; the loop skips an instant that cancellation left empty — in
  ``step()``, ``run(until=t)`` and ``run(until=event)`` alike — without
  advancing the clock to it.  The heap engine's ``cancel`` leaves a no-op in
  place (its event count is the reference stack's).
* A :class:`Resource` waiter may be a bare callable
  (:meth:`Resource.request_call`): granted FIFO among Event waiters, in the
  lane slot an Event's ``succeed()`` takes, and withdrawn like an
  interrupted request.
* A flat chain's flow completes by a scheduled call, not an Event.
* :meth:`Simulator.call_all_later` hands the engine a batch of calls and
  outcome-bearing Events at one delay (a fabric wake's completions): each
  lands where its own ``call_later``/``succeed`` would.
"""

from functools import partial

import pytest

from repro.config import small_testbed
from repro.machine import Machine
from repro.net.fabric import Fabric
from repro.reference import HeapSimulator
from repro.sim.core import Event, SimError, Simulator
from repro.sim.profile import SimProfiler
from repro.sim.resources import Resource
from repro.units import KiB, MiB
from tests.conftest import ENGINES, sync_write


@pytest.fixture(params=sorted(ENGINES))
def sim(request):
    return ENGINES[request.param]()


def note(fired, tag):
    return lambda *_: fired.append(tag)


class TestCancel:
    def test_cancelled_only_item_is_skipped_by_step(self):
        sim = Simulator()
        fired = []
        handle = sim.call_later(1.0, note(fired, "cancelled"))
        sim.call_later(2.0, note(fired, "kept"))
        assert sim.cancel(handle) is True
        sim.step()
        assert fired == ["kept"] and sim.now == 2.0 and sim.events_fired == 1
        with pytest.raises(IndexError):  # only the emptied instant's husk is left
            sim.step()

    def test_cancelled_only_item_is_skipped_by_run_until_a_time(self):
        sim = Simulator()
        fired = []
        sim.cancel(sim.call_later(1.0, note(fired, "cancelled")))
        sim.run(until=1.5)
        assert fired == [] and sim.now == 1.5 and sim.events_fired == 0
        sim.cancel(sim.call_later(1.0, note(fired, "cancelled")))
        sim.run()
        assert fired == [] and sim.now == 1.5  # the clock is not moved to 2.5

    def test_cancelled_only_item_is_skipped_by_run_until_an_event(self):
        sim = Simulator()
        fired = []
        sim.cancel(sim.call_later(1.0, note(fired, "cancelled")))
        sentinel = sim.timeout(3.0, value="done")
        assert sim.run(until=sentinel) == "done"
        assert fired == [] and sim.now == 3.0 and sim.events_fired == 1
        sim.cancel(sim.call_later(1.0, note(fired, "cancelled")))
        with pytest.raises(SimError, match="deadlock"):
            sim.run(until=sim.event())
        assert sim.now == 3.0

    def test_cancelling_one_of_several_keeps_the_rest_in_order(self):
        sim = Simulator()
        fired = []
        sim.call_later(1.0, note(fired, "a"))
        victim = sim.call_later(1.0, note(fired, "b"))
        sim.timeout(1.0).callbacks.append(note(fired, "timeout"))
        sim.call_later(1.0, note(fired, "c"))
        sim.call_at(1.0, note(fired, "deadline"))
        assert sim.cancel(victim)
        sim.run()
        assert fired == ["a", "timeout", "c", "deadline"]
        assert sim.events_fired == 4

    def test_rearmed_at_the_same_instant_lands_behind_what_came_between(self):
        sim = Simulator()
        fired = []
        for emptied in (True, False):  # the bucket left empty, or not
            start = sim.now
            fired.clear()
            if not emptied:
                sim.call_later(1.0, note(fired, "before"))
            handle = sim.call_later(1.0, note(fired, "wake"))
            assert sim.cancel(handle)
            sim.call_later(1.0, note(fired, "between"))
            sim.timeout(1.0).callbacks.append(note(fired, "timeout"))
            sim.call_later(1.0, note(fired, "wake"))
            sim.run()
            expected = ["between", "timeout", "wake"]
            assert fired == (expected if emptied else ["before", *expected])
            assert sim.now == start + 1.0 and not sim._future

    def test_pending_excludes_cancelled_items(self):
        sim = Simulator()
        handles = [sim.call_later(d, lambda: None) for d in (1.0, 1.0, 2.0)]
        sim.call_soon(lambda: None)
        assert sim.pending == 4
        sim.cancel(handles[0])
        sim.cancel(handles[2])
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0 and sim.events_fired == 2

    def test_a_call_whose_instant_has_come_is_not_cancelled(self):
        """Due now, the call is on the lane: ``cancel`` says so and leaves it
        to its owner's guard (the fabric's generation stamp)."""
        sim = Simulator()
        fired = []
        late = []
        sim.call_later(1.0, lambda: late.append(sim.cancel(handle)))
        handle = sim.call_later(1.0, note(fired, "ran"))
        sim.run()
        assert late == [False] and fired == ["ran"]
        assert sim.call_later(0.0, lambda: None) is None  # due now: no handle

    def test_the_heap_engine_fires_a_cancelled_call_as_a_no_op(self):
        sim = HeapSimulator()
        fired = []
        assert sim.cancel(sim.call_later(1.0, note(fired, "cancelled")))
        sim.run()
        assert fired == [] and sim.now == 1.0 and sim.events_fired == 1


class TestCallableWaiters:
    def test_event_and_callable_waiters_are_granted_fifo(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def use(name):  # hold the slot for a second, then release it
            order.append((name, sim.now))
            sim.call_later(1.0, res.release)

        res.request_call(lambda: use("c0"))  # free: granted at once
        for i in range(1, 5):
            if i % 2:
                res.request().callbacks.append(lambda _ev, i=i: use(f"e{i}"))
            else:
                res.request_call(lambda i=i: use(f"c{i}"))
        sim.run(until=0.0)
        assert res.in_use == 1 and res.queue_len == 4
        sim.run()
        names = ["c0", "e1", "c2", "e3", "c4"]
        assert order == [(name, float(i)) for i, name in enumerate(names)]
        assert res.in_use == 0 and res.queue_len == 0

    @pytest.mark.parametrize("kind", ["event", "callable"])
    def test_a_callable_grant_takes_the_event_grants_lane_slot(self, sim, kind):
        """A release's grant runs behind what was already due at its instant
        and what its caller scheduled before releasing, ahead of what it
        schedules after — for either kind of waiter, at one event count."""
        res = Resource(sim, capacity=1)
        res.request_call(lambda: None)
        sim.run()
        fired = []
        if kind == "event":
            res.request().callbacks.append(note(fired, "grant"))
        else:
            res.request_call(note(fired, "grant"))

        def releaser():
            sim.call_soon(note(fired, "before release"))
            res.release()
            sim.call_soon(note(fired, "after release"))

        sim.call_later(1.0, note(fired, "due before"))
        sim.call_later(1.0, releaser)
        fired_before = sim.events_fired
        sim.run()
        assert fired == ["due before", "before release", "grant", "after release"]
        assert sim.events_fired - fired_before == 5

    def test_abandoning_a_queued_callable_removes_it_by_identity(self, sim):
        class Chain:
            def __init__(self, tag, fired):
                self.tag, self.fired = tag, fired

            def granted(self):
                self.fired.append(self.tag)

        res = Resource(sim, capacity=1)
        res.request_call(lambda: None)
        fired = []
        chain = Chain("chain", fired)
        first, second = chain.granted, chain.granted
        assert first == second and first is not second  # equal, not identical
        res.request_call(first)
        res.request_call(note(fired, "other"))
        res.request_call(second)
        res.withdraw(second)
        assert list(res._waiters)[0] is first and res.queue_len == 2
        sim.run()
        res.release()
        sim.run()
        res.release()
        sim.run()
        assert fired == ["chain", "other"] and res.in_use == 1

    def test_abandoning_a_granted_unrun_callable_releases_at_once(self, sim):
        res = Resource(sim, capacity=1)
        ran = []
        granted = note(ran, "granted")
        res.request_call(granted)  # free: granted, its call not yet run
        assert res.in_use == 1
        res.withdraw(granted)
        assert res.in_use == 0  # the slot is back before the call runs
        res.request_call(note(ran, "next"))
        sim.run()
        assert ran == ["granted", "next"] and res.in_use == 1

    def test_withdraw_matches_an_abandoned_event_request(self, sim):
        """What ``withdraw`` does to a callable, ``_abandon_request`` does to
        an Event: queued, it leaves; granted, the slot comes back now."""
        for kind in ("event", "callable"):
            res = Resource(sim, capacity=1)
            if kind == "event":
                granted = res.request()
                queued = res.request()
                undo = res._abandon_request
            else:
                granted, queued = (lambda: None), (lambda: None)
                res.request_call(granted)
                res.request_call(queued)
                undo = res.withdraw
            undo(queued)
            assert (res.in_use, res.queue_len) == (1, 0)
            undo(granted)
            assert (res.in_use, res.queue_len) == (0, 0)
            sim.run()


class TestFlowCompletions:
    def test_a_flat_chains_flow_allocates_no_event(self, monkeypatch):
        """``PFSClient.write``'s RPCs and the sync write's complete their
        flows by scheduled calls: no ``flow:`` Event, and the same
        completion instants as an Event flow."""
        machine = Machine(small_testbed())
        names, started = [], []
        make = Simulator.event
        start_flow = Fabric.start_flow

        def event(sim, name=""):
            names.append(name)
            return make(sim, name)

        def tracked(fabric, *args, **kwargs):
            done = start_flow(fabric, *args, **kwargs)
            started.append(done)
            return done

        monkeypatch.setattr(Simulator, "event", event)
        monkeypatch.setattr(Fabric, "start_flow", tracked)
        client = machine.pfs_client(0)
        sim = machine.sim
        f = sim.run(until=sim.process(client.create("/g/a")))

        def writes():
            yield client.write(f, 0, 4 * MiB, locking=False)
            yield sync_write(client, f, 4 * MiB, 256 * KiB)

        sim.run(until=sim.process(writes()))
        assert started and started == [None] * len(started)
        assert not any(name.startswith("flow:") for name in names)
        assert f.persisted.total == 4 * MiB + 256 * KiB

    def test_on_done_fires_where_the_event_would(self, sim):
        """Same churn, one flow of each kind per pair: the callable and the
        Event complete at the same instant, in start order."""
        fabric = Fabric(sim, num_nodes=3, nic_bw=1e9, latency=1e-6)
        fired = []

        def completed(kind, pair, *_event):
            fired.append((kind, pair, sim.now))

        flows = ((0, 1, 8192), (1, 2, 0), (0, 2, 4096), (2, 0, 1 << 20))
        for src, dst, nbytes in flows:
            event = fabric.start_flow(src, dst, nbytes)
            event.callbacks.append(partial(completed, "event", (src, dst)))
            on_done = partial(completed, "call", (src, dst))
            assert fabric.start_flow(src, dst, nbytes, on_done=on_done) is None
        sim.run()
        events, calls = fired[0::2], fired[1::2]
        assert {e[0] for e in events} == {"event"} and {c[0] for c in calls} == {"call"}
        assert [e[1:] for e in events] == [c[1:] for c in calls] and len(calls) == 4


def before_and_after(delay):
    """Around the batch: what is already due at its instant, and what is
    scheduled for it after."""

    def before(sim, fired):
        sim.call_later(delay, note(fired, "before"))

    def after(sim, fired):
        sim.call_later(delay, note(fired, "after"))
        sim.timeout(delay).callbacks.append(note(fired, "timeout"))

    return before, after


def memo_miss_before(sim, fired):
    """The batch's instant is on the heap, but the memo holds a later one."""
    sim.call_later(1.0, note(fired, "before"))
    sim.call_later(2.0, note(fired, "later"))


def far_future_before(sim, fired):
    """At 2**60 s a delay of 1 s is absorbed: the batch is due now."""
    sim.run(until=2.0**60)
    sim.call_soon(note(fired, "before"))


CASES = {
    "memo hit": (1.0, *before_and_after(1.0)),
    "behind a memo miss": (1.0, memo_miss_before, before_and_after(1.0)[1]),
    "zero delay": (0.0, *before_and_after(0.0)),
    "absorbed by the clock": (1.0, far_future_before, before_and_after(0.0)[1]),
}


class TestCallAllLater:
    """``call_all_later(delay, items)`` is N ``call_later``s (an Event item's
    ``succeed(delay=...)``) in one call: the same slots, order, event count
    and sampled heap depth."""

    @staticmethod
    def run(sim_cls, case, together):
        delay, before, after = CASES[case]
        sim = sim_cls()
        sim.profiler = SimProfiler()
        fired = []
        before(sim, fired)
        items = []
        for i in range(5):  # ends on a call: a lane sample stops at event3
            if i % 2:
                event = sim.event()
                event.callbacks.append(note(fired, f"event{i}"))
                items.append(event)
            else:
                items.append(note(fired, f"call{i}"))
        if together:
            for item in items[1::2]:
                item.adopt(True, None)
            sim.call_all_later(delay, items)
        else:
            for item in items:
                if isinstance(item, Event):
                    item.succeed(delay=delay)
                else:
                    sim.call_later(delay, item)
        peak = sim.profiler.heap_peak  # before ``after`` can raise it
        after(sim, fired)
        sim.run()
        return fired, sim.events_fired, sim.now, peak

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_items_fire_where_call_laters_would(self, engine, case):
        sim_cls = ENGINES[engine]
        together = self.run(sim_cls, case, together=True)
        assert together == self.run(sim_cls, case, together=False)
        fired = together[0]
        batch = ["call0", "event1", "call2", "event3", "call4"]
        assert fired[fired.index("before") + 1 : fired.index("after")] == batch

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_a_negative_or_nan_delay_is_refused(self, sim, delay):
        with pytest.raises(SimError, match="delay="):
            sim.call_all_later(delay, [lambda: None])
        assert sim.pending == 0
