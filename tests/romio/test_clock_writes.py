"""The clock writes: an aggregator's round is one callback chain.

On the production stack a collective write's clock (``ext2ph.CallClock``)
runs each writer's round itself — lap the assembly, hand ``write_contig``
the round's segments, report back — with no process resumed: every process
is resumed once per call, by its own event.  The write path beneath is
callback chains (``write_contig`` → ``write_through_cache`` → page cache or
NVMM WAL, or ``PFSClient.write`` → stripe locks), which the live walk
(``tests.conftest.walking``) waits on from its rank processes.  So the two
must agree, crashes included: a crash that lands mid-chain abandons the
chain exactly where the interrupted frames of a walking writer stop, and
gives back at the interrupt kick what their ``finally`` gave back.
"""

from __future__ import annotations

import contextlib
import re
from collections import Counter
from dataclasses import replace

import pytest

from repro.cache.cachefile import _CachedWrite
from repro.config import small_testbed
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.faults import FaultSchedule, FaultSpec
from repro.hw import devices
from repro.hw.devices import SSDDevice, StorageDevice
from repro.hw.flash import FlashSSDDevice, NVMMDevice
from repro.hw.node import _BufferedWrite
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.pfs import client as pfs_client
from repro.pfs.client import _PipelinedWrite
from repro.pfs.locks import LockManager
from repro.pfs.server import DataServer, RaidTarget
from repro.romio.adio import ADIODriver
from repro.romio.file import MPIIOLayer
from repro.sim.core import Process, SimError
from repro.sim.resources import abandon_held
from repro.units import KiB, MiB
from repro.workloads import ior_workload
from repro.workloads.phases import multi_phase_body
from tests.conftest import grant_events, walking
from tests.romio.test_call_clock import assert_clock_equals_live, windows
from tests.romio.test_park_once import CACHE_HINTS, hints, strided, workload_of

DEVICES = (SSDDevice, FlashSSDDevice, NVMMDevice, RaidTarget)  # each concrete service time
WORKLOAD = workload_of([strided(8, block=8 * KiB, reps=3), strided(8, base=256 * KiB)], 8)


def run(kind, crash_at=None, *, info, cfg=None, faults=(), driver="beegfs", workload=WORKLOAD):
    """``workload`` on ``kind`` ("clock": production; "walk": production
    walking, every grant an event), crashed at ``crash_at`` if given: what
    the two must agree on — pinned bytes and phase seconds at the crash
    instant, then the ledgers, the persisted runs, the instant and size of
    every device and server request, the lock table, the device queues and
    the end."""
    specs = tuple(faults)
    if crash_at is not None:
        specs += (FaultSpec("aggregator_crash", start=crash_at),)
    machine = Machine(cfg or small_testbed(), faults=FaultSchedule(faults=specs) if specs else None)
    sim = machine.sim
    if kind == "walk":
        grant_events(machine)
    requests = []
    server_account = DataServer.account

    def device(service_time):
        def recorded(dev, offset, nbytes, is_write):
            dt = service_time(dev, offset, nbytes, is_write)
            requests.append((sim.now, dev.name, nbytes, is_write))
            return dt

        return recorded

    def server(srv, tag, nbytes, rpc_count):
        requests.append((sim.now, srv.server_id, nbytes, rpc_count))
        server_account(srv, tag, nbytes, rpc_count)

    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm, driver=driver)
    body = multi_phase_body(layer, workload, info, num_files=1, file_prefix="/g/f")
    with contextlib.ExitStack() as stack:
        patch = stack.enter_context(pytest.MonkeyPatch.context())
        for cls in DEVICES:  # every device request draws its service time
            patch.setattr(cls, "service_time", device(cls.service_time))
        patch.setattr(DataServer, "account", server)
        if kind == "walk":
            stack.enter_context(walking())
        procs = world.spawn(body)
        sim.all_of(procs).callbacks.append(lambda _ev: None)  # a crash fails it
        at_crash = None
        if crash_at is not None:
            sim.run(until=crash_at)
            slots = layer._open_slots["/g/f0"]
            at_crash = (
                [n.pinned_bytes for n in machine.nodes],
                {r: dict(p.profile.seconds) for fd in slots for r, p in fd.profilers.items()},
            )
        sim.run()
    return {
        "at_crash": at_crash,
        "io_stats": dict(machine.io_stats),
        "cache_stats": dict(machine.cache_stats),
        "persisted": list(machine.pfs.lookup("/g/f0").persisted),
        "requests": requests,
        "locks": machine.pfs.locks.snapshot(),
        "queues": [(n.ssd.queue.in_use, n.nvmm.queue.in_use) for n in machine.nodes],
        "end": sim.now,
    }


@contextlib.contextmanager
def spying(cls, name, note):
    """``cls.name`` wrapped: ``note(self, *args)`` runs before each call;
    if it returns a callable, that gets the call's result after it."""
    real = getattr(cls, name)

    def spy(self, *args):
        after = note(self, *args)
        got = real(self, *args)
        if callable(after):
            after(got)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cls, name, spy)
        yield


def assert_crash_mid_chain_like_the_walk(stage, probe, landed, **kwargs):
    """Find, on an uncrashed clock run, the first interval ``probe`` reports
    (a chain in ``stage``), crash both sides in its middle, and require that
    the crash landed there (``landed()`` on the clock run) and that the two
    agree."""
    intervals = []
    with probe(intervals):
        run("clock", **kwargs)
    assert intervals, stage
    start, end = intervals[0]
    crash_at = (start + end) / 2
    hits = []
    with landed(hits):
        clock = run("clock", crash_at, **kwargs)
    assert hits, f"the crash at {crash_at} missed the {stage}"
    walk = run("walk", crash_at, **kwargs)
    for what in clock:
        assert clock[what] == walk[what], (stage, what)
    assert clock["at_crash"][0] == [0] * 4  # the aggregators' buffers, let go
    assert clock["locks"] == [] and clock["queues"] == [(0, 0)] * 4  # nothing left held
    return clock


CACHED = {**hints(cb_nodes=2), **CACHE_HINTS, "e10_cache_kind": "extent"}  # a page-cache write


def test_the_recorder_sees_the_write_back_drains():
    """The requests the clock and the walk are compared on include the
    write-back stages' device writes: every server's RAID drain writes back
    the bytes its RPCs absorbed, and every node's SSD the bytes its page
    cache took in — the drains keep their device ledger inline, so the
    recorder sits on each concrete service time instead."""
    got = run("clock", info=CACHED)
    written = Counter()
    for _now, who, nbytes, what in got["requests"]:
        if isinstance(who, int):  # a server RPC: (now, server id, bytes, rpc count)
            written["rpc"] += nbytes
        elif what:  # a device write: (now, name, bytes, is_write)
            written[re.sub(r"\d+", "*", who)] += nbytes
    assert set(written) == {"rpc", "srv*.raid", "ssd*"}
    assert written["srv*.raid"] == written["rpc"] == got["io_stats"]["bytes_flushed"] > 0
    assert written["ssd*"] == got["io_stats"]["bytes_cached"] > 0


def test_a_crash_in_the_page_cache_memcpy():
    def probe(intervals):
        def note(chain):
            start = chain.sim.now
            return lambda _: intervals.append((start, start + chain.chunk / chain.cache.memcpy_bw))

        return spying(_BufferedWrite, "_next", note)

    def landed(hits):  # a copy that lands on an abandoned chain
        return spying(_BufferedWrite, "_copied", lambda chain: chain._triggered and hits.append(1))

    assert_crash_mid_chain_like_the_walk("page-cache memcpy", probe, landed, info=CACHED)


def test_a_crash_in_a_dirty_throttle_wait():
    cfg = small_testbed()
    cfg = cfg.scaled(ram=replace(cfg.ram, capacity=40 * KiB))  # 8 KiB of dirty pages

    def probe(intervals):
        waiting = {}

        def note(chain):
            now = chain.sim.now
            if chain in waiting:
                intervals.append((waiting.pop(chain), now))
            cache = chain.cache

            def after(_):
                if cache._throttle_waiters and cache._throttle_waiters[-1] == chain._next:
                    waiting[chain] = now

            return after

        return spying(_BufferedWrite, "_next", note)

    def landed(hits):  # a throttle wake that finds its chain abandoned
        return spying(_BufferedWrite, "_next", lambda chain: chain._triggered and hits.append(1))

    assert_crash_mid_chain_like_the_walk(
        "dirty-throttle wait", probe, landed, info=CACHED, cfg=cfg
    )


def test_a_crash_in_the_pfs_clients_per_run_overhead():
    def probe(intervals):
        def note(chain):
            now = chain.sim.now
            overhead = chain.client.pfs.cfg.client_rpc_overhead * chain.plan[1]
            intervals.append((now - overhead, now))

        return spying(_PipelinedWrite, "_issue", note)

    def landed(hits):  # the overhead's end finds its chain abandoned
        return spying(_PipelinedWrite, "_issue", lambda chain: chain._triggered and hits.append(1))

    assert_crash_mid_chain_like_the_walk("client overhead", probe, landed, info=hints(cb_nodes=2))


def test_a_crash_in_a_queued_ufs_stripe_lock():
    """UFS locks every stripe a write covers; even domains over 40 KiB of
    8 KiB stripes share stripe 2, so one aggregator queues behind the
    other's write."""
    workload = workload_of([windows(8, [0, 20 * KiB], piece=2560)], 8)
    info = hints(cb_nodes=2, cb_buffer_size="32k")

    def probe(intervals):
        def note(locks, file_id, stripe, exclusive, done):
            contended = locks.contended_acquires
            now = locks.sim.now

            def after(_):
                if locks.contended_acquires > contended:
                    done.callbacks.append(lambda _ev: intervals.append((now, locks.sim.now)))

            return after

        return spying(LockManager, "_request", note)

    def landed(hits):  # a queued waiter given up
        return spying(LockManager, "_abandon_waiter", lambda *args: hits.append(1))

    assert_crash_mid_chain_like_the_walk(
        "queued stripe lock", probe, landed, info=info, driver="ufs", workload=workload
    )


def test_a_crash_in_a_torn_appends_backoff():
    torn = (FaultSpec("nvmm_torn_write", target=0, start=0.0, rate=1.0),)
    info = {**CACHED, "e10_cache_kind": "nvmm"}

    def probe(intervals):
        def note(chain, appended):
            now, attempts = chain.sim.now, chain.attempts

            def after(_):
                if chain.attempts > attempts and chain.abandon is not None:
                    policy = chain.state.policy
                    backoff = policy.sync_backoff_base * policy.sync_backoff_factor ** (attempts)
                    intervals.append((now, now + backoff))

            return after

        return spying(_CachedWrite, "_appended", note)

    def landed(hits):  # the backoff's end finds its chain abandoned
        return spying(_CachedWrite, "_store", lambda chain: chain._triggered and hits.append(1))

    clock = assert_crash_mid_chain_like_the_walk(
        "torn-append backoff", probe, landed, info=info, faults=torn
    )
    assert clock["cache_stats"]["wal_torn"] > 0


def test_a_crash_in_an_nvmm_appends_device_write():
    """The WAL's store holds its NVMM device slot, which the walk's
    interrupted frame gave back in its ``finally``: the clock's chain gives
    it back at the interrupt kick (``abandon_held``)."""
    info = {**CACHED, "e10_cache_kind": "nvmm"}

    def probe(intervals):
        def note(dev, offset, nbytes, on_done, done):
            if done is not None:  # a chain that can be abandoned: the WAL's
                start, busy = dev.sim.now, dev.busy_time
                return lambda _: intervals.append((start, start + dev.busy_time - busy))

        return spying(StorageDevice, "_write_serve", note)

    @contextlib.contextmanager
    def landed(hits):  # a slot in service given back
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(devices, "abandon_held", lambda *a: (hits.append(1), abandon_held(*a)))
            yield

    assert_crash_mid_chain_like_the_walk("NVMM device write", probe, landed, info=info)


# ---------------------------------------------------------------------------
# The cache's other modes on the clock
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "extra",
    [{"e10_cache": "coherent"}, {"e10_cache_kind": "nvmm"}],
    ids=["coherent", "nvmm"],
)
def test_the_cache_modes_on_the_clock(extra):
    calls = [windows(8, [0, 32 * KiB, 48 * KiB, 80 * KiB]), strided(8, base=256 * KiB)]
    assert_clock_equals_live(
        workload_of(calls, 8), {**CACHED, **extra}, processes=3, num_files=2, deferred_close=True
    )


# ---------------------------------------------------------------------------
# Who is resumed
# ---------------------------------------------------------------------------


def test_an_aggregator_is_resumed_once_a_call(monkeypatch):
    """IOR, 4 aggregators writing 2 rounds in each of 4 calls: every
    process is resumed once a call by its own event and never by a write
    — the clock writes the rounds."""
    resumes, io = Counter(), set()
    resume, write_contig = Process._resume, ADIODriver.write_contig

    def counted(proc, event):
        resumes[proc.name, event.name if event not in io else "write"] += 1
        resume(proc, event)

    def tracked(driver, *args):
        written = write_contig(driver, *args)
        io.add(written)
        return written

    monkeypatch.setattr(Process, "_resume", counted)
    monkeypatch.setattr(ADIODriver, "write_contig", tracked)
    machine = Machine(small_testbed())
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm, driver="beegfs")
    workload = ior_workload(8, block_bytes=16 * KiB, segments=2)
    info = {**hints(cb_nodes=4), **CACHE_HINTS}
    world.run(multi_phase_body(layer, workload, info, num_files=2, file_prefix="/g/f"))
    calls = 2 * 2
    assert io  # the clock wrote
    assert {name for (name, what) in resumes if what == "write"} == set()
    for name in ("rank0", "rank2", "rank4", "rank6", "rank1+3"):
        assert resumes[name, "write_all:done"] == calls, name
    assert {what for _, what in resumes if what.startswith("write_all:")} == {"write_all:done"}


# ---------------------------------------------------------------------------
# A write that fails on the clock fails its write_all
# ---------------------------------------------------------------------------


def test_a_write_error_on_the_clock_fails_the_write_all(monkeypatch):
    """A ``SimError`` raised inside the write chain (here: the PFS client's
    plan, on its third write) fails the writing rank's ``write_all`` — its
    process fails with it, as the walking rank's does; it does not escape
    the event loop from the clock's bare call — and ``run_experiment``
    raises what the walk raises."""
    plan, fail = pfs_client.pipelined_plan, Process.fail

    def planted(*args):
        planted.calls += 1
        if planted.calls == 3:
            raise SimError("planted: no plan for this extent")
        return plan(*args)

    def failed(proc, exc, delay=0.0):
        if isinstance(proc, Process) and "planted" in str(exc):
            failed.procs.append(proc.name)
        return fail(proc, exc, delay)

    spec = ExperimentSpec(
        "ior", aggregators=4, cb_buffer=MiB, cache_mode="disabled", num_files=1, scale=0.001
    )
    raised = {}
    monkeypatch.setattr(pfs_client, "pipelined_plan", planted)
    monkeypatch.setattr(Process, "fail", failed)
    for kind in ("clock", "walk"):
        planted.calls, failed.procs = 0, []
        with walking() if kind == "walk" else contextlib.nullcontext():
            with pytest.raises(SimError) as info:
                run_experiment(spec)
        raised[kind] = (type(info.value), str(info.value), failed.procs)
    assert raised["clock"] == raised["walk"]
    assert raised["clock"][:2] == (SimError, "planted: no plan for this extent")
    assert len(raised["clock"][2]) == 1  # the writing rank's process
