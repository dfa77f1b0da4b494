"""``WriteBackCache``: waiters woken in place, the drain as one chain.

The oracle is the cache as it was before: a drain *process* spawned whenever
``dirty`` leaves zero, and a drain step that ``succeed()``s every waiter so
each can re-check the room for itself (``HerdCache`` / ``HerdServer`` below,
copied from the last commit that had them).  Whatever is thrown at the two —
generator and flat RPCs, any limit, any drain chunk, either engine, grant
events or not — every RPC must complete at the same instant, every
``srv.rpc`` / ``raid.jitter`` draw must happen in the same order with the same
value, and ``dirty`` must read the same at every drain step.  Only the number
of events fired may differ.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.config import PFSConfig
from repro.pfs.server import DataServer, WriteBackCache
from repro.sim.core import Event, Interrupt
from repro.sim.rng import RngStreams
from tests.conftest import ENGINES

KiB = 1024


def drain_all(cache):
    """Generator: wait in ``cache``'s FIFO until it is empty."""
    while cache.dirty > 0:
        ev = Event(cache.sim, name="srvcache-drainwait")
        cache.waiters.append(ev)
        yield ev


class HerdCache(WriteBackCache):
    """Wake-everyone reference: a process per burst, an event per waiter."""

    def ensure_daemon(self):
        if not self._daemon_running and self.dirty > 0:
            self._daemon_running = True
            self.sim.process(self._drain(), name="srv-drain")

    def _drain(self):
        while self.dirty > 0:
            chunk = min(self.drain_chunk, self.dirty)
            yield from self.target.write(self._drain_pos, chunk)
            self._drain_pos += chunk
            self.dirty -= chunk
            if self.waiters:
                waiters, self.waiters = self.waiters, []
                for ev in waiters:
                    ev.succeed()
        self._daemon_running = False


class HerdServer(DataServer):
    """A server over :class:`HerdCache` whose flat RPCs wait on an Event."""

    def __init__(self, sim, server_id, fabric_node, cfg, rng=None, num_workers=4):
        super().__init__(sim, server_id, fabric_node, cfg, rng, num_workers)
        self.cache = HerdCache(sim, self.target, cfg.server_cache_bytes, cfg.server_drain_chunk)

    def _serve_write_absorb(self, nbytes, on_done, done, rpc_count, remaining, tag):
        cache = self.cache
        while remaining > 0:
            room = cache.limit - cache.dirty
            if room <= 0:
                ev = Event(self.sim, name="srvcache-throttle")
                cache.waiters.append(ev)
                ev.callbacks.append(
                    lambda _ev, left=remaining: self._serve_write_absorb(
                        nbytes, on_done, done, rpc_count, left, tag
                    )
                )
                return
            chunk = min(remaining, room)
            cache.dirty += chunk
            remaining -= chunk
            cache.ensure_daemon()
        self.rpcs_served += max(1, rpc_count)
        self.account(tag, nbytes, rpc_count)
        self.workers.release()
        on_done()


class Rig:
    """One server, every observable logged in the order it happened."""

    def __init__(
        self, server_cls, engine="slotted", fast_path=True, limit=64 * KiB,
        drain_chunk=16 * KiB, workers=4, sigma=0.3,
    ):  # fmt: skip
        self.sim = sim = ENGINES[engine]()
        cfg = PFSConfig(
            jitter_sigma=sigma, server_cache_bytes=limit, server_drain_chunk=drain_chunk
        )
        self.server = server = server_cls(sim, 0, 0, cfg, rng=RngStreams(7), num_workers=workers)
        server.workers.inline_grants = server.target.queue.inline_grants = fast_path
        self.cache = server.cache
        self.log: list[tuple] = []  # drain steps and rpc jitter draws, interleaved
        self.done: dict = {}  # rpc id -> completion instant, in completion order
        self.on_drain_step = None  # test hook: (step index, dt)
        self.steps = 0
        service, draw = server.target.service_time, server.draw_rpc_jitter

        def service_time(offset, nbytes, is_write):
            dt = service(offset, nbytes, is_write)
            self.log.append(("drain", sim.now, offset, nbytes, server.cache.dirty, dt))
            self.steps += 1
            if self.on_drain_step is not None:
                self.on_drain_step(self.steps, dt)
            return dt

        def draw_rpc_jitter():
            value = draw()
            self.log.append(("rpc", sim.now, value))
            return value

        server.target.service_time = service_time
        server.draw_rpc_jitter = draw_rpc_jitter

    def flat(self, rpc, nbytes):
        self.server.serve_write(0, nbytes, lambda: self.done.__setitem__(rpc, self.sim.now))

    def generator(self, rpc, nbytes):
        def body():
            try:
                yield from reference.serve_write(self.server, 0, nbytes)
            except Interrupt:
                self.done[rpc] = ("interrupted", self.sim.now)
                return
            self.done[rpc] = self.sim.now

        return self.sim.process(body(), name=f"rpc{rpc}")

    def issue(self, rpc, nbytes, kind):
        (self.flat if kind == "flat" else self.generator)(rpc, nbytes)

    def play(self, arrivals):
        """``arrivals``: ``(gap since the previous one, nbytes, kind)``."""
        when = 0.0
        for rpc, (gap, nbytes, kind) in enumerate(arrivals):
            when += gap
            self.sim.call_later(when, partial(self.issue, rpc, nbytes, kind))
        self.sim.run()
        return self.observed()

    def observed(self):
        cache = self.cache
        assert not cache.waiters and not cache._daemon_running
        return self.log, list(self.done.items()), cache.dirty, self.server.rpcs_served


def both(arrivals, **rig):
    """The same stream through the cache and through the reference."""
    new, old = Rig(DataServer, **rig), Rig(HerdServer, **rig)
    got, want = new.play(arrivals), old.play(arrivals)
    assert got[0] == want[0]  # every drain step (with dirty) and jitter draw, in order
    assert got[1] == want[1]  # every RPC's completion instant, in completion order
    assert got[2:] == want[2:] == (0, len(arrivals))
    assert new.sim.now == old.sim.now
    assert new.sim.events_fired <= old.sim.events_fired
    return new, old


# An RPC's overhead is 0.35 ms, a burst's first 16 KiB drain step 6 ms (the
# seek) and each sequential one 0.27 ms: the gaps put arrivals inside,
# between and exactly on top of one another.
GAPS = st.sampled_from([0.0, 0.0, 1e-5, 3e-4, 2e-3, 7e-3])
SIZES = st.sampled_from([1, 4 * KiB, 16 * KiB, 40 * KiB, 64 * KiB, 200 * KiB])
ARRIVALS = st.lists(
    st.tuples(GAPS, SIZES, st.sampled_from(["flat", "flat", "generator"])),
    min_size=1,
    max_size=24,
)


@settings(max_examples=150, deadline=None)
@given(
    arrivals=ARRIVALS,
    limit=st.sampled_from([1, 8 * KiB, 24 * KiB, 64 * KiB, 512 * KiB]),
    drain_chunk=st.sampled_from([1 * KiB, 16 * KiB, 64 * KiB, 1024 * KiB]),
    workers=st.integers(1, 6),
    engine=st.sampled_from(sorted(ENGINES)),
    fast_path=st.booleans(),
)
def test_random_streams_match_the_wake_everyone_cache(
    arrivals, limit, drain_chunk, workers, engine, fast_path
):
    if limit == 1:  # byte-at-a-time absorb: keep the stream short
        arrivals = [(gap, min(size, 64), kind) for gap, size, kind in arrivals[:6]]
    both(
        arrivals,
        engine=engine,
        fast_path=fast_path,
        limit=limit,
        drain_chunk=drain_chunk,
        workers=workers,
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "grant-events"])
class TestNamedCases:
    def test_saturating_burst_fires_fewer_events(self, engine, fast_path):
        """32 same-instant 40 KiB RPCs into a 64 KiB cache: the herd the
        change removes.  Same history, measurably fewer events."""
        arrivals = [(0.0, 40 * KiB, "flat")] * 32
        new, old = both(arrivals, engine=engine, fast_path=fast_path, workers=32)
        assert new.sim.events_fired < 0.8 * old.sim.events_fired

    def test_head_granted_partially_keeps_the_head(self, engine, fast_path):
        """Room for part of the head's request: the head takes it and stays
        first; the waiter behind it is not resumed at all."""
        rig = Rig(DataServer, engine, fast_path, limit=64 * KiB, drain_chunk=16 * KiB, sigma=0.0)
        resumed = []
        absorb = rig.server._serve_write_absorb

        def counting(nbytes, *rest):
            resumed.append(nbytes)
            absorb(nbytes, *rest)

        rig.server._serve_write_absorb = counting
        rig.flat("fill", 64 * KiB)
        rig.flat("head", 40 * KiB)
        rig.flat("tail", 8 * KiB)
        rig.sim.run()
        # fill, then head's first look and tail's first look; after that only
        # the head is ever resumed (16 + 16 + 8 KiB) until it is done.
        assert resumed == [64 * KiB, 40 * KiB, 8 * KiB, 40 * KiB, 40 * KiB, 40 * KiB, 8 * KiB]
        assert list(rig.done) == ["fill", "head", "tail"]
        assert rig.done["fill"] < rig.done["head"] <= rig.done["tail"]
        both(
            [(0.0, 64 * KiB, "flat"), (0.0, 40 * KiB, "flat"), (0.0, 8 * KiB, "flat")],
            engine=engine, fast_path=fast_path, sigma=0.0,
        )  # fmt: skip

    def test_request_larger_than_the_limit(self, engine, fast_path):
        new, _ = both(
            [(0.0, 200 * KiB, "flat"), (0.0, 200 * KiB, "generator"), (1e-5, 1, "flat")],
            engine=engine, fast_path=fast_path, limit=24 * KiB, drain_chunk=16 * KiB,
        )  # fmt: skip
        assert new.server.target.bytes_written == 400 * KiB + 1

    def test_generator_and_flat_waiters_share_the_fifo_under_an_armed_stall(
        self, engine, fast_path
    ):
        """Flat RPCs are in flight when a stall arms on the server; from then
        on RPCs arrive as generators that pass the stall gate holding their
        worker.  Both kinds wait in one FIFO and are served in arrival order."""

        class Stall:
            def __init__(self, sim, until):
                self.sim, self.until = sim, until

            def stall_wait(self, server_id):
                return max(0.0, self.until - self.sim.now)

            def server_gate(self, server_id):
                if self.sim.now < self.until:
                    yield self.sim.timeout(self.until - self.sim.now)

        def run(server_cls):
            rig = Rig(server_cls, engine, fast_path, limit=32 * KiB, workers=8)
            for rpc in range(4):
                rig.flat(("flat", rpc), 40 * KiB)

            def arm():
                rig.server.injector = Stall(rig.sim, until=2e-3)
                for rpc in range(4):
                    rig.generator(("gen", rpc), 24 * KiB)

            queued = []
            rig.sim.call_later(2e-4, arm)
            rig.sim.call_later(2.5e-3, partial(rig.flat, ("flat", "late"), 40 * KiB))
            rig.sim.call_later(
                3e-3, lambda: queued.extend(type(w).__name__ for w in rig.cache.waiters)
            )
            rig.sim.run()
            return rig.observed(), queued

        (got, queued), (want, _) = run(DataServer), run(HerdServer)
        assert got == want and got[3] == 9
        assert queued == ["partial"] * 4 + ["Event"] * 4
        kinds = [rpc[0] for rpc, _ in got[1]]
        assert "gen" in kinds[:-1] and kinds.index("gen") > 0  # really interleaved

    def test_interrupted_generator_waiter_takes_no_room_and_stalls_nobody(
        self, engine, fast_path
    ):
        """A waiter interrupted while throttled leaves its event in the FIFO;
        the wake passes over it — no byte is taken for it and the waiter
        behind it is resumed in the same wake."""

        def run(server_cls):
            rig = Rig(server_cls, engine, fast_path, limit=32 * KiB, sigma=0.0)
            rig.flat("fill", 32 * KiB)
            victim = rig.generator("victim", 16 * KiB)
            rig.flat("tail", 16 * KiB)

            def kill():
                assert victim._target.name == "srvcache-throttle"
                assert rig.cache.waiters[1] is victim._target
                victim.interrupt("gone")

            rig.sim.call_later(1e-3, kill)
            rig.sim.run()
            assert rig.server.workers.in_use == 0
            assert rig.server.target.bytes_written == 48 * KiB  # not the victim's
            return rig.observed()

        got, want = run(DataServer), run(HerdServer)
        assert got == want
        done = dict(got[1])
        assert done["victim"][0] == "interrupted" and got[3] == 2

    def test_drain_all_behind_throttled_writers(self, engine, fast_path):
        """``drain_all`` waits in the same FIFO, behind writers that keep the
        cache full; it returns at the first drain step that leaves it empty."""

        def run(server_cls):
            rig = Rig(server_cls, engine, fast_path, limit=32 * KiB)
            emptied = []

            def waiter():
                yield from drain_all(rig.cache)
                emptied.append((rig.sim.now, rig.cache.dirty))

            for rpc in range(3):
                rig.flat(rpc, 48 * KiB)
            rig.sim.call_later(1e-3, lambda: rig.sim.process(waiter()))
            rig.sim.call_later(6.5e-3, partial(rig.generator, "late", 48 * KiB))
            rig.sim.run()
            return rig.observed(), emptied

        got, want = run(DataServer), run(HerdServer)
        assert got == want
        (when, dirty), = got[1]
        assert dirty == 0 and when >= max(t for _, t in got[0][1])

    def test_same_instant_arrival_between_drain_step_and_wake(self, engine, fast_path):
        """An RPC whose overhead ends at the very instant of a drain step,
        queued behind the step: it runs after the step freed room and before
        the wake, and takes the room ahead of the FIFO — in both caches."""

        def run(server_cls):
            rig = Rig(server_cls, engine, fast_path, limit=32 * KiB, sigma=0.0)

            def barge():
                # The step has freed its chunk and taken the FIFO; the wake
                # has not run yet (it would have given the room to "second").
                assert rig.cache.dirty == 16 * KiB and not rig.cache.waiters
                rig.server._serve_write_absorb(16 * KiB, rig.barger, None, 1, 16 * KiB, None)

            def on_step(step, dt):
                if step == 2:
                    # One hop later, so the absolute deadline queues *behind*
                    # the device's own completion for the same instant.
                    when = rig.sim.now + dt
                    rig.sim.call_soon(
                        lambda: rig.sim.call_at(when, barge)
                    )

            rig.on_drain_step = on_step
            rig.barger = lambda: rig.done.__setitem__("barger", rig.sim.now)
            rig.server.workers.request()  # the worker barge()'s release returns
            rig.flat("fill", 32 * KiB)
            rig.flat("first", 16 * KiB)
            rig.flat("second", 16 * KiB)
            rig.sim.run()
            return rig.observed()

        got, want = run(DataServer), run(HerdServer)
        assert got == want
        done = dict(got[1])
        assert done["first"] < done["barger"] < done["second"]
