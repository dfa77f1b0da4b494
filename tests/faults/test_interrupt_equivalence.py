"""A crash may land anywhere: the flat chains let go of what the generators do.

The production stack runs the sync thread's flush and every collective write
on callback chains and call clocks, faults or not; the reference stack runs
the generators they replaced.  An aggregator crash interrupts both mid-flight,
so each flat chain carries an ``abandon`` hook that undoes what the
generator's interrupted frame would, and a call clock aborts
(``CallClock.abort``).  Crashed at the same instant, the two stacks must
agree:

* a flushing sync thread — in its read-back (the page-cache copy, an SSD's
  queue or service), its RTT wait, its flow, a server's worker queue, stall
  gate, RPC overhead or absorb throttle, or the backoff after a failed read
  or a timed-out RPC, with and without the sync-RPC watchdog — on every
  server's worker and every SSD's queue occupancy and every server's dirty
  bytes at the crash instant, then on the persisted runs, the replay
  statistics and the integrity verdict once a recovery job has replayed the
  journals;
* a collective write on its clock, crashed before and after its offset
  exchange releases, on every node's pinned bytes and every rank's phase
  seconds at the crash instant — against the live walk too.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cachefile import CacheState
from repro.cache.policy import CachePolicy
from repro.chaos.invariants import verify_files
from repro.config import small_testbed
from repro.faults import FaultSchedule, FaultSpec
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.payload import payload_key
from repro.reference import AnyOf
from repro.romio import ext2ph
from repro.romio.file import MPIIOLayer
from repro.units import KiB
from repro.workloads.phases import multi_phase_body
from tests.conftest import grant_events, walking
from tests.romio.test_park_once import hints, strided, workload_of

# ---------------------------------------------------------------------------
# A flushing sync thread
# ---------------------------------------------------------------------------

#: Two aggregators' caches on node 0 (they share its SSD with its page-cache
#: writeback) and one on node 1; one worker and a one-chunk write-back cache
#: per server; node 1's SSD fails every read for its first 0.3 ms (its sync
#: thread backs off) and server 0 stalls for 6 ms while they flush.
RANKS = (0, 1, 2)
EXTENT = 48 * KiB  # each rank caches two, back to back: [0, 288 KiB) in all
WATCHDOG = 4e-3

#: Where a generator sync thread (or the ``sync-rpc`` process it races
#: against the watchdog) waits: (innermost frame, what it waits on).
WAITS = {
    ("write_sync", "timeout"): "rtt",
    ("_sync_rpc", "flow"): "flow",
    ("serve_write", "acquire"): "worker queue",
    ("server_gate", "timeout"): "stall gate",
    ("serve_write", "timeout"): "rpc overhead",
    ("absorb", "srvcache-throttle"): "absorb throttle",
    ("_io", "acquire"): "device queue",
    ("_io", "timeout"): "device service",
    ("read_local", "timeout"): "page-cache copy",
    ("flush", "timeout"): "backoff",
    ("_run", "get"): "idle",
}
PHASES = {
    "page-cache copy",
    "backoff",
    "rtt",
    "flow",
    "worker queue",
    "stall gate",
    "rpc overhead",
    "absorb throttle",
    "device queue",
    "device service",
}
#: Crash instants that between them catch a sync thread in every phase of
#: ``PHASES``, with the watchdog and without (found by scanning the flush on
#: the stream SSD: the phase-coverage test pins that tier, since another
#: SSD model moves every phase's timing).  The page-cache copy of a
#: read-back lasts from 11.5 to 13.3 us; the SSD read-back's waits are the
#: device queue and service.
INSTANTS = (1.25e-5, 2e-4, 4.33e-3, 9e-3, 10.5e-3, 31.5e-3)


def phase(proc) -> str:
    gen, target = proc.gen, proc._target
    while getattr(gen.gi_yieldfrom, "gi_code", None) is not None:
        gen = gen.gi_yieldfrom
    if isinstance(target, AnyOf):  # the watchdog race: where its RPC is
        return phase(target.events[0])
    return WAITS[gen.gi_code.co_name, target.name.split(":")[0]]


def crashed_flush(reference: bool, crash_at: float, watchdog: bool, ssd_kind=None):
    """Three sync threads flushing under a stall, crashed at ``crash_at``,
    then a recovery job that replays their journals.  Returns what the
    stacks must agree on, and (reference stack) the phase each sync thread
    was in."""
    cfg = small_testbed(num_nodes=2, procs_per_node=2)
    cfg = cfg.scaled(
        ssd_kind=ssd_kind or cfg.ssd_kind,
        pfs=replace(
            cfg.pfs, num_server_workers=1, server_cache_bytes=16 * KiB, server_drain_chunk=16 * KiB
        )
    )
    schedule = FaultSchedule(
        faults=(
            FaultSpec("ssd_io_error", target=1, start=1e-5, duration=3e-4, rate=1.0),
            FaultSpec("server_stall", target=0, start=4e-3, duration=6e-3),
            FaultSpec("aggregator_crash", start=crash_at),
        ),
        sync_rpc_timeout=WATCHDOG if watchdog else 0.0,
    )
    machine = Machine(cfg, faults=schedule, reference=reference)
    sim = machine.sim
    world = MPIWorld(machine)
    policy = CachePolicy(True, False, "flush_immediate", True, "/scratch", 16 * KiB)
    pfs_file = machine.pfs.create("/g/f", stripe_size=16 * KiB, stripe_count=4)
    states = [CacheState(machine, rank, pfs_file, policy, world.comm) for rank in RANKS]

    def writer(state):
        for k in range(2):
            yield state.write_through_cache((2 * state.rank + k) * EXTENT, EXTENT, None)

    for state in states:
        sim.process(writer(state))
    phases = {}
    if reference:  # just before the crash: where the generators wait

        def probe():
            for state in states:
                phases[state.rank] = phase(state.sync_thread._proc)

        sim.call_later(crash_at, probe)
    sim.run(until=crash_at)  # every event of the crash instant, the crash's included
    servers, nodes = machine.pfs.servers, machine.nodes
    at_crash = {
        "workers": [(s.workers.in_use, s.workers.queue_len) for s in servers],
        "dirty": [s.cache.dirty for s in servers],
        "ssd": [(n.ssd.queue.in_use, n.ssd.queue.queue_len) for n in nodes],
    }
    assert not any(state.sync_thread.alive for state in states)
    sim.run()
    persisted_at_crash = list(pfs_file.persisted)
    recovery = MPIWorld(machine)
    layer = MPIIOLayer(machine, recovery.comm)

    def replay(ctx):
        fh = yield from layer.open(ctx.rank, "/g/f", {})
        yield from fh.close()

    recovery.run(replay)
    sim.run()
    coverage = (np.array([0]), np.array([2 * len(RANKS) * EXTENT]))
    observed = {
        "at_crash": at_crash,
        "persisted_at_crash": persisted_at_crash,
        "persisted": list(pfs_file.persisted),
        "replay": machine.recovery.stats(),
        "verdict": verify_files(
            machine.pfs, {"/g/f": coverage}, lambda path: payload_key(cfg.seed, path)
        ),
        "ledgers": (dict(machine.io_stats), dict(machine.cache_stats)),
        "end": sim.now,
    }
    return observed, phases


def assert_stacks_agree(crash_at: float, watchdog: bool, ssd_kind=None) -> set:
    reference, phases = crashed_flush(True, crash_at, watchdog, ssd_kind)
    production, _ = crashed_flush(False, crash_at, watchdog, ssd_kind)
    for what in reference:
        assert production[what] == reference[what], (what, crash_at, watchdog, phases)
    assert reference["verdict"] == []
    return set(phases.values())


@pytest.mark.parametrize("watchdog", [False, True], ids=["no_watchdog", "watchdog"])
def test_a_crash_in_every_phase_of_a_flush(watchdog):
    seen = set()
    for crash_at in INSTANTS:
        seen |= assert_stacks_agree(crash_at, watchdog, ssd_kind="stream")
    assert PHASES <= seen, PHASES - seen


@settings(max_examples=40, deadline=None)
@given(crash_at=st.floats(1e-5, 0.06), watchdog=st.booleans())
def test_a_crash_at_any_instant_of_a_flush(crash_at, watchdog):
    assert_stacks_agree(crash_at, watchdog)


# ---------------------------------------------------------------------------
# A collective write on its clock
# ---------------------------------------------------------------------------

CALL_HINTS = hints(cb_nodes=2, cb_buffer_size="8k")
WORKLOAD = workload_of([strided(8, block=8 * KiB, reps=3)], 8)  # six rounds


def crashed_call(kind: str, crash_at: float):
    """The workload crashed at ``crash_at`` on ``kind`` ("clock": production;
    "walk": production, walking; "reference"): every node's pinned bytes and
    every rank's phase seconds at the crash instant."""
    schedule = FaultSchedule.of(FaultSpec("aggregator_crash", start=crash_at))
    machine = Machine(small_testbed(), faults=schedule, reference=kind == "reference")
    if kind == "walk":
        grant_events(machine)
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm)
    body = multi_phase_body(layer, WORKLOAD, CALL_HINTS, num_files=1, file_prefix="/g/f")
    with walking() if kind == "walk" else contextlib.nullcontext():
        procs = world.spawn(body)
        machine.sim.all_of(procs).callbacks.append(lambda _ev: None)  # the crash fails it
        machine.sim.run(until=crash_at)
    seconds = {
        rank: dict(prof.profile.seconds)
        for fd in layer._open_slots["/g/f0"]
        for rank, prof in fd.profilers.items()
    }
    return [n.pinned_bytes for n in machine.nodes], seconds


@pytest.fixture(scope="module")
def call_instants():
    """The instants of the call on its clock, uncrashed: the last arrival at
    the offset exchange, its release and the post-write release."""
    seen = {}
    arrive, start, finish = ext2ph.CallClock.arrive, ext2ph.CallClock._start, ext2ph.CallClock._finish

    def arrived(clock, rank, prof):
        seen["arrival"] = clock.sim.now
        return arrive(clock, rank, prof)

    def started(clock, event):
        seen["release"] = clock.sim.now
        start(clock, event)

    def finished(clock, event):
        seen["post_write"] = clock.sim.now
        finish(clock, event)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ext2ph.CallClock, "arrive", arrived)
        patch.setattr(ext2ph.CallClock, "_start", started)
        patch.setattr(ext2ph.CallClock, "_finish", finished)
        machine = Machine(small_testbed())
        world = MPIWorld(machine)
        layer = MPIIOLayer(machine, world.comm)
        world.run(multi_phase_body(layer, WORKLOAD, CALL_HINTS, num_files=1, file_prefix="/g/f"))
    assert seen["arrival"] < seen["release"] < seen["post_write"]
    return seen


def assert_the_clock_lets_go_like_the_walk(crash_at: float):
    clock = crashed_call("clock", crash_at)
    for oracle in ("walk", "reference"):
        assert crashed_call(oracle, crash_at) == clock, (oracle, crash_at)
    return clock


def test_a_crash_before_the_exchange_releases(call_instants):
    crash_at = (call_instants["arrival"] + call_instants["release"]) / 2
    pinned, seconds = assert_the_clock_lets_go_like_the_walk(crash_at)
    assert pinned == [0, 0, 0, 0]
    assert not any("offset_exch" in s for s in seconds.values())


def test_a_crash_after_the_exchange_releases(call_instants):
    release, post_write = call_instants["release"], call_instants["post_write"]
    for share in (0.01, 0.3, 0.6, 0.99):
        pinned, seconds = assert_the_clock_lets_go_like_the_walk(
            release + share * (post_write - release)
        )
        assert pinned == [0, 0, 0, 0]  # the aggregators' buffers, let go
        assert all(s["offset_exch"] > 0 for s in seconds.values())


@settings(max_examples=15, deadline=None)
@given(share=st.floats(0.0, 1.2))
def test_a_crash_at_any_instant_of_the_call(call_instants, share):
    release, post_write = call_instants["release"], call_instants["post_write"]
    assert_the_clock_lets_go_like_the_walk(release + share * (post_write - release))
