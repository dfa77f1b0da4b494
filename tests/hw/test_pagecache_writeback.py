"""``PageCache``: throttled writers woken in place, writeback as one chain.

Twin of ``tests/pfs/test_writeback_cache.py``: the oracle is the page cache as
it was before — a writeback *process* per burst, every throttled writer
``succeed()``ed at every step (``HerdPageCache``, copied from the last commit
that had it).  Each write and fsync must return at the same instant, and the
device must see the same requests at the same instants with the same ``dirty``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_testbed
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.hw.devices import SSDDevice
from repro.hw.node import PageCache
from repro.machine import Machine
from repro.sim.core import Event, Interrupt
from tests.conftest import ENGINES

KiB = 1024
MiB = 1024 * KiB


def pop_extent(dirty_extents, file_id, chunk):
    """Consume ``chunk`` dirty bytes of ``file_id``'s extent FIFO and return
    the device offset to write them at (the first piece's file offset) —
    the reference's own copy, sharing no code with the production chain."""
    extents = dirty_extents[file_id]
    dev_off = extents[0][0]
    need = chunk
    while need > 0 and extents:
        off, size = extents[0]
        if size <= need:
            extents.pop(0)
            need -= size
        else:
            extents[0] = (off + need, size - need)
            need = 0
    if not extents:
        dirty_extents.pop(file_id, None)
    return dev_off


class HerdPageCache(PageCache):
    """Wake-everyone reference: a process per burst, an event per waiter,
    and the generator every writer ran (``yield from`` drives it and the
    production chain's Event alike)."""

    def buffered_write(self, file_id, nbytes, offset=0):
        remaining = int(nbytes)
        pos = int(offset)
        while remaining > 0:
            room = self.dirty_limit - self.dirty
            if room <= 0:
                ev = Event(self.sim, name="dirty-throttle")
                self._throttle_waiters.append(ev)
                yield ev
                continue
            chunk = min(remaining, room)
            yield self.sim.timeout(chunk / self.memcpy_bw)
            self.dirty += chunk
            self._dirty_by_file[file_id] = self._dirty_by_file.get(file_id, 0) + chunk
            self._dirty_extents.setdefault(file_id, []).append((pos, chunk))
            pos += chunk
            remaining -= chunk
            self._ensure_daemon()

    def _ensure_daemon(self):
        if not self._daemon_running and self.dirty > 0:
            self._daemon_running = True
            self.sim.process(self._writeback(), name="writeback")

    def _writeback(self):
        while self.dirty > 0:
            file_id = max(self._dirty_by_file, key=self._dirty_by_file.get)
            chunk = min(self.writeback_chunk, self._dirty_by_file[file_id])
            yield from self.device.write(pop_extent(self._dirty_extents, file_id, chunk), chunk)
            self.dirty -= chunk
            left = self._dirty_by_file[file_id] - chunk
            if left > 0:
                self._dirty_by_file[file_id] = left
            else:
                del self._dirty_by_file[file_id]
            self._wake_waiters()
        self._daemon_running = False

    def _wake_waiters(self):
        if self.dirty < self.dirty_limit and self._throttle_waiters:
            waiters, self._throttle_waiters = self._throttle_waiters, []
            for ev in waiters:
                ev.succeed()
        if self._flush_waiters:
            still = []
            for file_id, ev in self._flush_waiters:
                if self._dirty_by_file.get(file_id, 0) <= 0:
                    ev.succeed()
                else:
                    still.append((file_id, ev))
            self._flush_waiters = still


def observe(sim, cache, log):
    """Log every device request with the instant and ``dirty`` it saw."""
    service = cache.device.service_time

    def service_time(offset, nbytes, is_write):
        dt = service(offset, nbytes, is_write)
        log.append((sim.now, offset, nbytes, cache.dirty, dt))
        return dt

    cache.device.service_time = service_time


def play(cache_cls, writers, engine, fast_path, dirty_limit, chunk, interrupt=None):
    """``writers``: ``(start gap, file, nbytes, fsync afterwards)`` each."""
    sim = ENGINES[engine]()
    # 1 MiB/s device behind a 1 GiB/s memcpy: writeback is the slow side.
    ssd = SSDDevice(sim, "ssd", write_bw=MiB, read_bw=MiB, latency=1e-4, capacity_bytes=1 << 40)
    ssd.queue.inline_grants = fast_path
    cache = cache_cls(sim, ssd, memcpy_bw=1024 * MiB, dirty_limit=dirty_limit, writeback_chunk=chunk)
    log, done = [], {}
    observe(sim, cache, log)

    def writer(wid, file_id, nbytes, fsync):
        try:
            yield from cache.buffered_write(file_id, nbytes, offset=wid * MiB)
            done[wid, "write"] = sim.now
            if fsync:
                yield from cache.fsync(file_id)
                done[wid, "fsync"] = sim.now
        except Interrupt:
            done[wid, "interrupted"] = sim.now

    procs, when = [], 0.0
    for wid, (gap, file_id, nbytes, fsync) in enumerate(writers):
        when += gap
        sim.call_later(
            when,
            lambda a=(wid, file_id, nbytes, fsync): procs.append(sim.process(writer(*a))),
        )
    if interrupt is not None:
        at, wid = interrupt
        sim.call_later(at, lambda: procs[wid].interrupt("gone"))
    sim.run()
    assert cache.dirty == 0 and not cache._throttle_waiters and not cache._flush_waiters
    assert not cache._daemon_running and not cache._dirty_by_file
    return log, list(done.items()), ssd.bytes_written, sim.now, sim.events_fired


def both(writers, **kw):
    got, want = play(PageCache, writers, **kw), play(HerdPageCache, writers, **kw)
    assert got[:4] == want[:4]
    assert got[4] <= want[4]
    return got, want


WRITERS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1e-5, 4e-3, 0.05]),  # a 4 KiB step takes 4 ms
        st.integers(1, 3),
        st.sampled_from([1, 3 * KiB, 4 * KiB, 10 * KiB, 40 * KiB]),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(
    writers=WRITERS,
    dirty_limit=st.sampled_from([2 * KiB, 8 * KiB, 32 * KiB, 1024 * KiB]),
    chunk=st.sampled_from([1 * KiB, 4 * KiB, 64 * KiB]),
    engine=st.sampled_from(sorted(ENGINES)),
    fast_path=st.booleans(),
)
def test_random_writers_match_the_wake_everyone_cache(
    writers, dirty_limit, chunk, engine, fast_path
):
    both(writers, engine=engine, fast_path=fast_path, dirty_limit=dirty_limit, chunk=chunk)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "grant-events"])
class TestNamedCases:
    def test_throttled_burst_fires_fewer_events(self, engine, fast_path):
        writers = [(0.0, 1 + w % 2, 10 * KiB, w % 3 == 0) for w in range(12)]
        got, want = both(
            writers, engine=engine, fast_path=fast_path, dirty_limit=8 * KiB, chunk=4 * KiB
        )
        assert got[4] < want[4]

    def test_every_throttled_writer_sees_the_room_before_any_copy_lands(
        self, engine, fast_path
    ):
        """A buffered write adds to ``dirty`` only after its memcpy, so one
        wake resumes *all* throttled writers — the overshoot Linux's dirty
        throttling has too, and the reference's."""
        writers = [(0.0, 1, 8 * KiB, False)] + [(1e-5, 2, 4 * KiB, False)] * 3
        got, _ = both(
            writers, engine=engine, fast_path=fast_path, dirty_limit=8 * KiB, chunk=4 * KiB
        )
        finished = [t for (_, what), t in got[1] if what == "write"]
        assert finished[1] == finished[2] == finished[3]  # one wake, three copies
        # 4 KiB left + three 4 KiB copies = 16 KiB; the next step starts a chunk later.
        assert max(dirty for _, _, _, dirty, _ in got[0]) == 12 * KiB > 8 * KiB

    def test_interrupted_writer_left_in_the_fifo(self, engine, fast_path):
        writers = [(0.0, 1, 8 * KiB, False), (1e-5, 2, 4 * KiB, False), (0.0, 3, 4 * KiB, True)]
        got, _ = both(
            writers, engine=engine, fast_path=fast_path, dirty_limit=8 * KiB, chunk=4 * KiB,
            interrupt=(1e-3, 1),
        )  # fmt: skip
        done = dict(got[1])
        assert (1, "interrupted") in done and (1, "write") not in done
        assert got[2] == 12 * KiB  # the victim's bytes were never copied in
        assert done[2, "write"] < done[2, "fsync"]


def gc_pressure_run(cache_cls, reference):
    """A real injector stretching node 0's writeback threefold."""
    schedule = FaultSchedule(
        faults=(FaultSpec("ssd_gc_pressure", target=0, start=0.0, duration=50.0, factor=3.0),)
    )
    cfg = small_testbed()
    cfg = cfg.scaled(ram=replace(cfg.ram, capacity=64 * MiB))  # dirty limit 12.8 MiB
    machine = Machine(cfg, faults=schedule, reference=reference)
    sim, node = machine.sim, machine.nodes[0]
    old = node.page_cache
    node.page_cache = cache = cache_cls(
        sim, node.ssd, old.memcpy_bw, old.dirty_limit, old.writeback_chunk
    )
    log, done = [], {}
    observe(sim, cache, log)

    def writer(wid):
        yield from cache.buffered_write(wid, 24 * MiB, offset=wid << 30)
        done[wid] = sim.now

    for wid in range(3):
        sim.process(writer(wid))
    sim.run()
    ssd = node.ssd
    assert ssd.injector is machine.faults and ssd.queue.inline_grants is not reference
    return log, done, ssd.busy_time, ssd.injected_stall_time, machine.faults.injected, sim.now


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_gc_pressure_stretches_flat_writeback_by_what_the_generator_charged(
    engine,
):
    reference = engine == "heapq"
    got, want = gc_pressure_run(PageCache, reference), gc_pressure_run(HerdPageCache, reference)
    assert got == want
    log, _, busy, stall, injected, _ = got
    assert injected == len(log) > 0  # every writeback step was inside the window
    assert busy == pytest.approx(3 * sum(dt for *_, dt in log), rel=1e-12)
    assert stall == pytest.approx(busy * 2 / 3, rel=1e-12)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_read_queued_mid_writeback_takes_the_slot_at_the_chunk_boundary(engine):
    """A read issued while writeback chunk ``k`` is in service starts at the
    instant chunk ``k`` completes, and chunk ``k + 1`` starts at the instant
    the read completes: the SSD's one slot is handed on at every chunk
    boundary.  Every size and rate is a power of two, so the instants worked
    out here are exact."""
    sim = ENGINES[engine]()
    latency, write_bw, read_bw, memcpy_bw = 2.0**-10, 2.0**20, 2.0**21, 2.0**30
    chunk, chunks, k, read_bytes = 64 * KiB, 5, 2, 32 * KiB
    ssd = SSDDevice(
        sim, "ssd", write_bw=write_bw, read_bw=read_bw, latency=latency, capacity_bytes=1 << 40
    )
    cache = PageCache(sim, ssd, memcpy_bw=memcpy_bw, dirty_limit=1 << 30, writeback_chunk=chunk)
    starts = []  # (instant, write?) of every request, as the device serves it
    service = ssd.service_time

    def service_time(offset, nbytes, is_write):
        starts.append((sim.now, is_write))
        return service(offset, nbytes, is_write)

    ssd.service_time = service_time
    landed = chunks * chunk / memcpy_bw  # the one copy lands, writeback starts
    write = latency + chunk / write_bw  # one chunk's service
    read = latency + read_bytes / read_bw  # the read's service
    read_done = []

    def issue_read():
        ssd.read_flat(0, read_bytes, lambda error: read_done.append((sim.now, error)), sim.event())

    sim.call_at(landed + (k + 0.5) * write, issue_read)
    cache.buffered_write(1, chunks * chunk)
    sim.run()

    boundary = landed + (k + 1) * write
    assert starts == (
        [(landed + j * write, True) for j in range(k + 1)]
        + [(boundary, False)]
        + [(landed + j * write + read, True) for j in range(k + 1, chunks)]
    )
    assert read_done == [(boundary + read, None)]
    assert cache.dirty == 0 and ssd.bytes_written == chunks * chunk


def test_dirty_bytes_without_extents_fail_loudly():
    """The ledger and the extent FIFO are written together, so a dirty file
    with no extents is a broken invariant: the writeback raises rather than
    invent a device offset."""
    sim = ENGINES["slotted"]()
    ssd = SSDDevice(sim, "ssd", write_bw=MiB, read_bw=MiB, latency=1e-4, capacity_bytes=1 << 40)
    cache = PageCache(sim, ssd, memcpy_bw=1024 * MiB, dirty_limit=MiB, writeback_chunk=4 * KiB)
    cache.dirty = cache._dirty_by_file[1] = 4 * KiB
    cache._ensure_daemon()
    with pytest.raises(KeyError):
        sim.run()
    assert ssd.requests_served == 0
