"""Scheduler edge cases: both engines, plus the slotted internals.

The behavioural tests run against both engines (production's slotted one
and the reference stack's ``heapq``) — the identity contract says any
observable difference between them is a bug.  The differential tests run one
seeded program on both and compare the full trace, including the schedules
the slotted engine's heap of instant entries is most exposed to
(far-future horizons, sub-nanosecond gaps, an instant scheduled again after
another).
"""

import cProfile
import math
import pstats
import random

import pytest

from repro.cache.cachefile import CacheState
from repro.cache.policy import CachePolicy
from repro.config import PFSConfig, small_testbed
from repro.hw.devices import SSDDevice
from repro.hw.node import PageCache
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.pfs.server import DataServer
from repro.reference import HeapSimulator
from repro.sim.core import (
    Interrupt,
    SimError,
    Simulator,
    create_simulator,
)
from repro.sim.rng import RngStreams
from tests.conftest import ENGINES


@pytest.fixture(params=sorted(ENGINES))
def sim(request):
    return ENGINES[request.param]()


class TestEngineSelection:
    def test_registry_kinds(self):
        """Each engine names its kind (``tools/profile_sweep.py`` reads it to
        find the head of the event list)."""
        assert ENGINES == {"heapq": HeapSimulator, "slotted": Simulator}
        for kind, cls in ENGINES.items():
            assert cls.kind == cls().kind == kind

    def test_default_from_env(self, monkeypatch):
        """The default no longer comes from the environment: the factory
        builds the production engine whatever ``REPRO_ENGINE`` says (what a
        ``Machine`` does with the variable: tests/test_machine.py)."""
        monkeypatch.setenv("REPRO_ENGINE", "heapq")
        assert type(create_simulator()) is Simulator


class TestSameInstantOrdering:
    def test_seq_tie_stability(self, sim):
        """Events landing on one instant fire in insertion (FIFO) order —
        across zero-delay timeouts, succeeded events and equal-delay
        timeouts scheduled from different call sites."""
        fired = []

        def note(tag):
            return lambda _ev: fired.append(tag)

        for i in range(50):
            t = sim.timeout(0.0)
            t.callbacks.append(note(("zero", i)))
            ev = sim.event()
            ev.succeed()
            ev.callbacks.append(note(("succ", i)))
        sim.run()
        assert fired == [(k, i) for i in range(50) for k in ("zero", "succ")]

    def test_seq_tie_stability_same_future_instant(self, sim):
        fired = []
        for i in range(20):
            t = sim.timeout(1.5)
            t.callbacks.append(lambda _ev, i=i: fired.append(i))
        sim.run()
        assert fired == list(range(20))
        assert sim.now == 1.5

    def test_call_soon_interleaves_fifo(self, sim):
        """call_soon/call_later dispatch at exactly the lane position a
        zero-delay timeout scheduled at the same point would."""
        fired = []
        t1 = sim.timeout(0.0)
        t1.callbacks.append(lambda _ev: fired.append("t1"))
        sim.call_soon(lambda: fired.append("c1"))
        t2 = sim.timeout(0.0)
        t2.callbacks.append(lambda _ev: fired.append("t2"))
        sim.call_later(0.0, lambda: fired.append("c2"))
        sim.run()
        assert fired == ["t1", "c1", "t2", "c2"]

    def test_call_later_orders_with_timeouts(self, sim):
        fired = []
        t = sim.timeout(2.0)
        t.callbacks.append(lambda _ev: fired.append("t"))
        sim.call_later(1.0, lambda: fired.append("early"))
        sim.call_later(2.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["early", "t", "c"]
        assert sim.now == 2.0


class TestPastScheduling:
    def test_deadline_in_past_raises(self, sim):
        sim.run(until=5.0)
        assert sim.now == 5.0
        with pytest.raises(SimError):
            sim.call_at(4.999, lambda: None)

    def test_deadline_at_now_fires_immediately(self, sim):
        sim.run(until=5.0)
        fired = []
        sim.call_at(5.0, lambda: fired.append(("on-time", sim.now)))
        sim.run()
        assert fired == [("on-time", 5.0)]

    def test_negative_timeout_raises(self, sim):
        with pytest.raises(SimError):
            sim.timeout(-1e-9)

    def test_negative_call_later_raises(self, sim):
        with pytest.raises(SimError):
            sim.call_later(-1e-9, lambda: None)

    @pytest.mark.parametrize(
        "schedule, name",
        [
            (lambda sim: sim.call_later(math.nan, lambda: None), "delay"),
            (lambda sim: sim.call_at(math.nan, lambda: None), "when"),
            (lambda sim: sim.timeout(math.nan), "delay"),
            (lambda sim: sim.run(until=math.nan), "until"),
        ],
        ids=["call_later", "call_at", "timeout", "run_until"],
    )
    def test_nan_time_is_refused_by_name(self, sim, schedule, name):
        """A NaN delay, instant or horizon is no time at all: refused with
        the argument named, leaving the event list and the clock as they
        were (a NaN entry would fire out of order with ``sim.now`` NaN)."""
        fired = []
        sim.call_later(1.0, lambda: fired.append(sim.now))
        sim.call_later(2.0, lambda: fired.append(sim.now))
        with pytest.raises(SimError, match=f"{name}.*nan"):
            schedule(sim)
        assert sim.pending == 2 and sim.now == 0.0
        sim.run()
        assert fired == [1.0, 2.0] and sim.events_fired == 2


class TestInterruptRaces:
    def test_interrupt_racing_triggered_event(self, sim):
        """Interrupt a process whose awaited event has already been
        succeeded (scheduled to fire this instant, not yet dispatched):
        the interrupt must win and the pending fire must not resurrect or
        crash the process."""
        ev = sim.event()

        def body():
            try:
                yield ev
                return "fired"
            except Interrupt as i:
                return ("interrupted", i.cause)

        p = sim.process(body())

        def racer():
            yield sim.timeout(1.0)
            ev.succeed("value")  # scheduled for dispatch at t=1.0 ...
            p.interrupt(cause="race")  # ... but the interrupt lands first

        sim.process(racer())
        sim.run()
        assert p.value == ("interrupted", "race")
        assert ev.triggered

    def test_interrupt_after_fire_is_noop(self, sim):
        ev = sim.event()

        def body():
            got = yield ev
            yield sim.timeout(1.0)
            return got

        p = sim.process(body())

        def racer():
            yield sim.timeout(1.0)
            ev.succeed("value")

        sim.process(racer())
        sim.run(until=1.0)
        sim.run()
        assert p.value == "value"


class TestDifferentialEngines:
    def test_500_step_differential(self):
        """One seeded 500-step program — a churn of processes spawning
        timeouts, zero-delay hops, shared events and interrupts — executed
        on both engines; the full (time, tag) trace must match exactly."""

        def run(kind):
            sim = ENGINES[kind]()
            rng = random.Random(20160926)
            trace = []
            shared = {}

            def worker(wid, steps):
                for s in range(steps):
                    roll = rng.random()
                    if roll < 0.45:
                        yield sim.timeout(rng.choice([0.0, 1e-6, 3.3e-5, 0.25]))
                    elif roll < 0.70:
                        ev = sim.event()
                        ev.succeed((wid, s))
                        got = yield ev
                        trace.append((sim.now, "hop", got))
                    elif roll < 0.85:
                        key = rng.randrange(4)
                        ev = shared.pop(key, None)
                        if ev is None:
                            shared[key] = ev = sim.event()
                            got = yield ev
                            trace.append((sim.now, "met", wid, got))
                        else:
                            ev.succeed(wid)
                    else:
                        yield sim.timeout(rng.random())
                    trace.append((sim.now, "step", wid, s))
                return wid

            procs = [sim.process(worker(w, 50)) for w in range(10)]
            sim.run(until=10_000.0)
            # Release rendezvous stragglers deterministically until every
            # worker has finished its 50 steps.
            for _ in range(100):
                if all(not p.is_alive for p in procs):
                    break
                for ev in list(shared.values()):
                    if not ev.triggered:
                        ev.succeed(None)
                shared.clear()
                sim.run(until=sim.now + 1_000.0)
            return trace, [p.value for p in procs], sim.now

        t_heapq = run("heapq")
        t_slotted = run("slotted")
        assert t_heapq == t_slotted

    def test_far_future_and_subnanosecond_gaps_differential(self):
        """The schedules the slotted spine is most exposed to: instants a
        fraction of a nanosecond apart (distinct floats, distinct buckets),
        exact re-hits of an existing instant through ``at``/``call_later``
        (same bucket, FIFO), and far-future horizons that leave the spine
        sparse — mixed in one seeded program, with deadline-bounded runs
        stopping between and exactly on pending instants."""

        def run(kind):
            sim = ENGINES[kind]()
            rng = random.Random(1705)
            trace = []
            seen = []  # instants already scheduled, to re-hit exactly

            def note(tag):
                return lambda: trace.append((sim.now, tag))

            def worker(wid):
                for s in range(60):
                    roll = rng.random()
                    if roll < 0.35:
                        gap = rng.choice([1e-10, 3e-10, 7.5e-10]) * (1 + rng.random())
                    elif roll < 0.55:
                        gap = rng.choice([1e-6, 3.7e-4, 1.0])
                    elif roll < 0.75:
                        gap = rng.choice([9e2, 4e6, 3e9]) * (1 + rng.random())
                    else:
                        gap = 0.0
                    when = sim.now + gap
                    if seen and rng.random() < 0.3:
                        later = [t for t in seen if t >= sim.now]
                        if later:
                            when = rng.choice(later)
                    seen.append(when)
                    sim.call_later(gap, note(("call", wid, s)))
                    wake = sim.event()
                    sim.call_at(when, wake.succeed)
                    yield wake
                    trace.append((sim.now, "at", wid, s))
                return wid

            procs = [sim.process(worker(w)) for w in range(8)]
            # Deadline-bounded legs: a horizon between instants, one exactly
            # on a pending instant, then the sentinel form to the end.
            sim.run(until=5e-10)
            trace.append(("leg", sim.now, sim.events_fired))
            pending = sorted(t for t in seen if t > sim.now)
            if pending:
                sim.run(until=pending[len(pending) // 2])
                trace.append(("leg", sim.now, sim.events_fired))
            sim.run(until=sim.all_of(procs))
            sim.run()
            return trace, [p.value for p in procs], sim.now, sim.events_fired

        assert run("heapq") == run("slotted")

    def test_spine_holds_each_distinct_instant_once(self):
        """Events sharing an instant share one bucket and one spine entry,
        however they were scheduled; popping an instant removes both."""
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.timeout(2.0).callbacks.append(lambda _ev, i=i: fired.append(("t", i)))
            sim.call_later(2.0, lambda i=i: fired.append(("c", i)))
            sim.call_at(2.0, lambda i=i: fired.append(("d", i)))
        sim.timeout(2.0 + 2e-10)
        sim.timeout(7e9)
        assert sorted(entry[0] for entry in sim._future) == [2.0, 2.0 + 2e-10, 7e9]
        assert sim.pending == 17
        sim.run(until=2.0)
        assert fired == [(k, i) for i in range(5) for k in ("t", "c", "d")]
        assert sim._future[0][0] == 2.0 + 2e-10 and len(sim._future) == 2
        sim.run()
        assert sim.now == 7e9 and not sim._future

    def test_an_instant_scheduled_again_after_a_memo_miss_fires_as_one_batch(self):
        """Scheduled at T, then T', then T again: the slotted engine holds T
        in two heap entries (its memo had moved on to T') and fires them as
        one batch in scheduling order — what the batch schedules for now runs
        behind both — as the heap engine does; cancel reaches a call in
        either entry."""

        def run(kind):
            sim = ENGINES[kind]()
            fired = []

            def item(tag):
                def fire():
                    fired.append((sim.now, tag))
                    sim.call_soon(lambda: fired.append((sim.now, tag + "'")))

                return fire

            schedule = (("a", 1.0), ("b", 1.0), ("x", 2.0), ("c", 1.0), ("d", 1.0))
            handles = {tag: sim.call_later(when, item(tag)) for tag, when in schedule}
            sim.timeout(1.0).callbacks.append(lambda _ev: fired.append((sim.now, "t")))
            if kind == "slotted":
                assert sorted(entry[0] for entry in sim._future) == [1.0, 1.0, 2.0]
            assert sim.cancel(handles["b"]) and sim.cancel(handles["d"])
            if kind == "slotted":
                assert sim.pending == 4
            sim.run()
            return fired

        fired = run("slotted")
        assert fired == run("heapq")
        assert fired == [
            (1.0, "a"), (1.0, "c"), (1.0, "t"), (1.0, "a'"), (1.0, "c'"),
            (2.0, "x"), (2.0, "x'"),
        ]  # fmt: skip

    def test_step_on_an_empty_slotted_engine_raises_index_error(self):
        with pytest.raises(IndexError):
            Simulator().step()


def one_instant(sim, fired, delay, boom=""):
    """Five items due ``delay`` from now — calls, a Timeout, a call at the
    absolute instant — each noting itself and what is still ``pending`` as
    it fires, then scheduling a follow-up for its instant; the one tagged
    ``boom`` raises after that.  Returns the Timeout (item "b")."""

    def item(tag):
        def fire(*_event):
            fired.append((sim.now, tag, sim.pending))
            sim.call_soon(lambda: fired.append((sim.now, tag + "+", sim.pending)))
            if tag == boom:
                raise RuntimeError(tag)

        return fire

    sim.call_later(delay, item("a"))
    timeout = sim.timeout(delay, value="b")
    timeout.callbacks.append(item("b"))
    sim.call_later(delay, item("c"))
    sim.call_at(sim.now + delay, item("d"))
    sim.call_later(delay, item("e"))
    return timeout


ORDER = ["a", "b", "c", "d", "e", "a+", "b+", "c+", "d+", "e+"]


def tags(fired):
    return [(now, tag) for now, tag, _pending in fired]


class TestBatchCutShort:
    """The slotted loop fires an instant's lane or bucket as one batch; cut
    short, it puts the unfired tail back at the head of the lane, so the
    heap engine's order survives — differentially, on both engines."""

    @pytest.mark.parametrize("delay", [0.0, 1.5], ids=["lane", "bucket"])
    def test_a_raising_callback_leaves_the_rest_of_its_instant_to_fire(self, delay):
        def run(kind):
            sim = ENGINES[kind]()
            fired = []
            one_instant(sim, fired, delay, boom="c")
            with pytest.raises(RuntimeError, match="c"):
                sim.run()
            cut, pending = list(fired), sim.pending
            sim.run()
            return cut, pending, fired, sim.now, sim.events_fired

        heapq, slotted = run("heapq"), run("slotted")
        assert heapq == slotted
        cut, pending, fired, now, events = slotted
        assert cut == [(delay, "a", 4), (delay, "b", 4), (delay, "c", 4)]
        assert pending == 5  # d, e, then the follow-ups a+, b+, c+
        assert tags(fired) == [(delay, tag) for tag in ORDER]
        assert now == delay and events == 10

    @pytest.mark.parametrize("delay", [0.0, 1.5], ids=["lane", "bucket"])
    def test_a_sentinel_fired_mid_batch_returns_with_the_tail_pending(self, delay):
        def run(kind):
            sim = ENGINES[kind]()
            fired = []
            sentinel = one_instant(sim, fired, delay)
            got = sim.run(until=sentinel)
            cut, pending = list(fired), sim.pending
            sim.run()
            return got, cut, pending, fired, sim.now, sim.events_fired

        heapq, slotted = run("heapq"), run("slotted")
        assert heapq == slotted
        got, cut, pending, fired, now, events = slotted
        assert got == "b" and tags(cut) == [(delay, "a"), (delay, "b")]
        assert pending == 5  # c, d, e, then a+, b+
        assert tags(fired) == [(delay, tag) for tag in ORDER]

    def test_step_fires_the_same_order_one_item_at_a_time(self):
        def run(kind):
            sim = ENGINES[kind]()
            fired = []
            for delay in (0.0, 1.5):
                one_instant(sim, fired, delay)
            pending = []
            while sim.pending:
                sim.step()
                pending.append(sim.pending)
            return fired, pending, sim.now

        assert run("heapq") == run("slotted")


def call_budget_load(sim):
    """64 chains of 200 hops each: half ``call_later`` chains that also
    ``call_soon`` a no-op per hop, half processes waiting on timeouts."""

    def chain(left, delay):
        def hop():
            nonlocal left
            left -= 1
            if left:
                sim.call_later(delay, hop)
                sim.call_soon(lambda: None)

        return hop

    def waiter(hops, delay):
        for _ in range(hops):
            yield sim.timeout(delay)

    for i in range(64):
        delay = 1e-6 * (1 + i % 4)
        if i % 2:
            sim.call_later(delay, chain(200, delay))
        else:
            sim.process(waiter(200, delay))


#: cProfile calls per dispatched event of ``call_budget_load`` on the slotted
#: engine (135,455 calls / 19,232 events; 7.376 when a process resume called
#: ``isinstance`` and an inline fire ``len``, 7.456 when the future was a dict
#: of buckets over a heap of distinct instants, 10.49 when the lane was a
#: deque of pooled call objects), and the 5 % the gate allows on top.
CALLS_PER_EVENT = 7.043
CALL_BUDGET = CALLS_PER_EVENT * 1.05


def singleton_load(sim):
    """64 chains of 200 hops each, every hop one period after the last and
    each chain offset by a distinct fraction of the period, so no two items
    ever share an instant: half ``call_later`` chains, half timeouts."""
    period = 1e-6

    def calls(left):
        def hop():
            nonlocal left
            left -= 1
            if left:
                sim.call_later(period, hop)

        return hop

    def timeouts(left):
        def hop(_ev):
            nonlocal left
            left -= 1
            if left:
                sim.timeout(period).callbacks.append(hop)

        return hop

    for i in range(64):
        offset = period * (i + 1) / 65
        if i % 2:
            sim.call_later(offset, calls(200))
        else:
            sim.timeout(offset).callbacks.append(timeouts(200))


#: cProfile calls per dispatched event of ``singleton_load`` (114,916 calls /
#: 12,800 events; 10.97 when every instant also paid a dict probe and pop).
SINGLETON_CALLS_PER_EVENT = 8.978


def test_dispatch_stays_within_its_call_budget():
    """Host cost as an exact number: the calls the engine makes per event it
    dispatches on a fixed synthetic load, gated at the measured value + 5 %."""
    sim = Simulator()
    call_budget_load(sim)
    profile = cProfile.Profile()
    profile.enable()
    sim.run()
    profile.disable()
    stats = pstats.Stats(profile)
    calls = stats.total_calls
    assert sim.events_fired == 19_232
    assert calls / sim.events_fired <= CALL_BUDGET, f"{calls:,d} calls"
    # ... and the pools still recycle: a handful of Timeouts, not one a hop.
    inits = sum(
        row[1]
        for (path, _line, name), row in stats.stats.items()
        if name == "__init__" and path.endswith("core.py")
    )
    assert inits < 200


def test_one_item_instants_cost_one_push_and_one_pop():
    """An instant holding one item — what a sync thread's lone RPCs leave on
    the event list — costs a heap push and a heap pop, nothing keyed by its
    instant: gated at the measured calls per event + 5 %."""
    sim = Simulator()
    singleton_load(sim)
    profile = cProfile.Profile()
    profile.enable()
    sim.run()
    profile.disable()
    calls = pstats.Stats(profile).total_calls
    assert sim.events_fired == 12_800
    budget = SINGLETON_CALLS_PER_EVENT * 1.05
    assert calls / sim.events_fired <= budget, f"{calls:,d} calls"

    sim = Simulator()
    singleton_load(sim)
    instants = []
    while sim.pending:
        sim.step()
        instants.append(sim.now)
    assert len(set(instants)) == len(instants) == 12_800  # no two share one


# ---------------------------------------------------------------------------
# The storage tier's call budget
# ---------------------------------------------------------------------------

KiB = 1024
STEPS = 2_000  # drain steps, RPCs and writeback steps of each load

#: cProfile calls of one step of each storage-tier load, the engine's
#: dispatch included, and the 5 % the gate allows on top:
#: - a server's write-back drain step: 12,024 calls / 2,000 steps (8.01
#:   when a completion closure handed the chunk to the cache, which issued
#:   the next one through ``StorageDevice.write_flat``; 10.01 when that
#:   device write took and gave back the queue slot through
#:   ``Resource.try_acquire`` and ``Resource.release``);
#: - a page cache's writeback step of its one dirty file: 12,007 / 2,000
#:   (10.00 through ``write_flat`` and an extent pop of its own, 12.00 with
#:   the same two hops);
#: - an untagged RPC through a throttling cache, beyond the drain step it
#:   causes: 45,975 / 2,000 − 6.01 (16.98 when it acked its caller through
#:   an Event of its own; all but four of the load's RPCs queue for a
#:   worker, so their releases hand it on through ``Resource.release``),
#:   unchanged when a free worker's grant stopped reaching the overhead
#:   charge through a hop: the load issues its RPCs before the profile;
#: - an untagged RPC issued onto a free worker, nothing queued or
#:   throttled, beyond the drain step it causes: 28,045 / 2,000 − 6.01
#:   (what the contended load cannot see: the RPC's own grant, release and
#:   ack; 9.01 when the grant reached the overhead charge through a hop).
CALLS_PER_DRAIN_STEP = 6.012
CALLS_PER_WRITEBACK_STEP = 6.004
CALLS_PER_RPC = 16.976
CALLS_PER_LONE_RPC = 8.011


def data_server(sim, chunks=4):
    """One jittered server whose write-back cache holds ``chunks`` drain
    chunks."""
    cfg = PFSConfig(
        jitter_sigma=0.35, server_cache_bytes=chunks * 64 * KiB, server_drain_chunk=64 * KiB
    )
    return DataServer(sim, 0, 0, cfg, rng=RngStreams(2016))


def drain_load(sim):
    """``STEPS`` chunks dirty in a server's cache, nothing else."""
    server = data_server(sim)
    server.cache.dirty = STEPS * server.cache.drain_chunk
    server.cache.ensure_daemon()
    return server.target


def writeback_load(sim):
    """``STEPS`` chunks of one file dirty in a node's page cache."""
    ssd = SSDDevice(sim, "ssd", 1 << 20, 1 << 20, latency=1e-4, capacity_bytes=1 << 40)
    cache = PageCache(sim, ssd, memcpy_bw=1 << 30, dirty_limit=1 << 40, writeback_chunk=64 * KiB)
    nbytes = STEPS * cache.writeback_chunk
    cache.dirty = cache._dirty_by_file[0] = nbytes
    cache._dirty_extents[0] = [(0, nbytes)]
    cache._ensure_daemon()
    return ssd


def acked():
    """An RPC's caller, doing nothing (the flat caller's ``on_done``)."""


def rpc_load(sim):
    """``STEPS`` one-chunk RPCs issued at once: 4 hold the workers, the
    rest queue for them, and every absorb past the fourth throttles."""
    server = data_server(sim)
    for _ in range(STEPS):
        server.serve_write(0, server.cache.drain_chunk, acked)
    return server.target


def lone_rpc_load(sim):
    """``STEPS`` one-chunk RPCs one after another: each is issued inside
    the run, by its predecessor's ack, onto the worker that ack freed, and
    the cache holds them all — no RPC queues for a worker or throttles."""
    server = data_server(sim, chunks=STEPS)
    left = [STEPS]

    def issue():
        if left[0]:
            left[0] -= 1
            server.serve_write(0, server.cache.drain_chunk, issue)

    sim.call_soon(issue)
    return server.target


def profiled(load):
    """``load`` run on a fresh engine under cProfile, after one run without
    (which pays the one-off imports of a jitter stream's first draw)."""
    sim = Simulator()
    load(sim)
    sim.run()
    sim = Simulator()
    device = load(sim)
    profile = cProfile.Profile()
    profile.enable()
    sim.run()
    profile.disable()
    assert device.requests_served == STEPS  # one device write a step or RPC
    return pstats.Stats(profile), sim.events_fired


def test_a_storage_step_stays_within_its_call_budget():
    """The write-back drain, the page-cache writeback and the server RPC
    each cost a fixed number of calls per step on a fixed synthetic load,
    gated at the measured value + 5 %; the event counts are pinned too, so a
    cheaper run cannot come from fewer events."""
    stats, events = profiled(drain_load)
    assert events == STEPS + 1
    per_drain_step = stats.total_calls / STEPS
    assert per_drain_step <= CALLS_PER_DRAIN_STEP * 1.05, f"{stats.total_calls:,d} calls"

    stats, events = profiled(writeback_load)
    assert events == STEPS + 1
    assert stats.total_calls / STEPS <= CALLS_PER_WRITEBACK_STEP * 1.05, f"{stats.total_calls:,d}"

    stats, events = profiled(rpc_load)
    assert events == 7_993
    wakes = sum(row[1] for (_path, _line, name), row in stats.stats.items() if name == "_wake")
    assert wakes == STEPS - 4  # the cache throttled
    per_rpc = stats.total_calls / STEPS - per_drain_step
    assert per_rpc <= CALLS_PER_RPC * 1.05, f"{stats.total_calls:,d} calls"

    stats, events = profiled(lone_rpc_load)
    assert events == 2 * STEPS + 2  # per RPC its absorb and its drain step
    per_rpc = stats.total_calls / STEPS - per_drain_step
    assert per_rpc <= CALLS_PER_LONE_RPC * 1.05, f"{stats.total_calls:,d} calls"


# ---------------------------------------------------------------------------
# The sync thread's call budget
# ---------------------------------------------------------------------------

#: cProfile calls of one batch of the sync thread's flush
#: (``Machine.flush``) on a fixed load, the engine's dispatch included, and
#: the 5 % the gate allows on top: a one-chunk batch read back and written
#: to the global file by one synchronous RPC — its flow, the server's RPC
#: and the drain step that RPC causes included:
#: - read back off the SSD: 118,495 calls / 2,000 batches (70.25 with
#:   eleven forwarding calls: the journal's dispatch on its backend, three
#:   ``min``/``max``, two device-read hops, two sync-write entry hops, and
#:   one hop each from the flow's end and the worker grant to the server's
#:   next step; the gate read 76.25 until then, recorded before the drain
#:   step lost two calls; 92.24 when the flush was a generator loop over a
#:   generator batch step whose every wait resumed the process, and the
#:   read-back and the sync write each fired an Event of their own);
#: - read back out of the NVMM log: 110,495 / 2,000 (64.25 with the same
#:   hops).
CALLS_PER_FLUSH_BATCH = 59.248
CALLS_PER_NVMM_FLUSH_BATCH = 55.248
CHUNK = 64 * KiB


def cached_extent(cache_kind="extent"):
    """A one-node machine whose cache journal holds ``STEPS + 1`` chunks: in
    its cache file, the page cache written back (every read-back is the
    SSD's), or in its NVMM log."""
    machine = Machine(small_testbed(num_nodes=1, procs_per_node=1))
    policy = CachePolicy(True, False, "flush_onclose", True, "/scratch", CHUNK, cache_kind)
    state = CacheState(machine, 0, machine.pfs.create("/g/f"), policy, MPIWorld(machine).comm)

    def fill():
        for k in range(STEPS + 1):
            yield state.write_through_cache(k * CHUNK, CHUNK, None)
        if state.local_file is not None:
            yield from state.localfs.fsync(state.local_file)

    machine.sim.run(until=machine.sim.process(fill()))
    return machine, state


def flushed_batches(cache_kind):
    """``(calls, events)`` of ``STEPS`` one-chunk batches of ``machine.flush``
    over a ``cache_kind`` journal, all of them flushed."""
    machine, state = cached_extent(cache_kind)
    sim, client = machine.sim, machine.pfs_client(0)

    def flusher(pos, end):
        return (yield from machine.flush(
            machine, client, state.global_file, state.journal, pos, end, "bytes_flushed"
        ))

    # The first batch pays the one-off imports of the jitter stream's draw.
    sim.run(until=sim.process(flusher(0, CHUNK)))
    events = sim.events_fired
    profile = cProfile.Profile()
    profile.enable()
    done = sim.process(flusher(CHUNK, (STEPS + 1) * CHUNK))
    sim.run()
    profile.disable()
    assert done.value == ((STEPS + 1) * CHUNK, None)
    assert machine.io_stats["bytes_flushed"] == (STEPS + 1) * CHUNK
    return pstats.Stats(profile).total_calls, sim.events_fired - events


def test_a_flushed_batch_stays_within_its_call_budget():
    """A batch of the flush costs a fixed number of calls on a fixed load,
    gated at the measured value + 5 %; its events are pinned too."""
    calls, events = flushed_batches("extent")
    assert events == 13_998
    assert calls / STEPS <= CALLS_PER_FLUSH_BATCH * 1.05, f"{calls:,d} calls"


def test_a_batch_flushed_out_of_the_nvmm_log_stays_within_its_call_budget():
    """The same gate over an NVMM-log journal: the journal binds either
    backend's read-back once a flush."""
    calls, events = flushed_batches("nvmm")
    assert events == 13_998
    assert calls / STEPS <= CALLS_PER_NVMM_FLUSH_BATCH * 1.05, f"{calls:,d} calls"
