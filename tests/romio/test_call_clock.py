"""The call clock == the live loop, bit for bit.

On the production stack a collective write runs on its clock
(``ext2ph.CallClock``): every process arrives at the offset exchange once,
the rounds advance in closed form, an aggregator is resumed only at the
instant a buffer it receives is assembled, and everybody else once, by the
post-write release.  The round-by-round loop the clock stands in for is
still what the reference stack (``reference=True``: every rank a process,
per-rank releases) and any fault machine run — here a *production* machine
under a schedule that never fires (``quiet_faults``) — so the same job on
all three must agree with ``==`` on every rank's ``PhaseTiming``s, every
profiler phase total per file, the instants each rank entered each call, the
persisted intervals, the pinned-memory peaks, the ledgers and the final
clock.  Only the event count and the number of process resumes may differ,
and the latter by exactly the resumes that carried no decision.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import AccessTable
from repro.config import small_testbed
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio import ext2ph
from repro.romio.file import MPIFileHandle, MPIIOLayer
from repro.sim.core import Process, SimError, SlottedSimulator
from repro.units import KiB
from repro.workloads import collperf_workload, flashio_workload, ior_workload
from repro.workloads.base import IOStep, Workload
from repro.workloads.phases import multi_phase_body
from tests.conftest import quiet_faults
from tests.mpi.test_rank_classes import FOLLOWERS, production_cluster
from tests.romio.test_park_once import (
    CACHE_HINTS,
    assert_no_rounds_fails_by_name,
    hints,
    machine_config,
    run_job,
    strided,
    table_of,
    workload_of,
)


def assert_clock_equals_live(workload, info, processes=None, **kwargs):
    """``workload`` on its clock against both round-by-round oracles;
    returns the clock run's profiler counters."""
    clock, counters, (_, classes) = run_job("production", workload, info, **kwargs)
    oracles = {
        "reference": ("reference", {}),
        "quiet_faults": ("production", {"faults": quiet_faults(machine_config(**kwargs))}),
    }
    for name, (kind, extra) in oracles.items():
        live, live_counters, (_, singles) = run_job(kind, workload, info, **extra, **kwargs)
        assert singles == [(r,) for r in range(workload.nprocs)]
        assert "ext2ph.park_single" not in live_counters  # every rank walked every round
        for what in clock:
            assert clock[what] == live[what], (name, what)
    if processes is not None:
        assert len(classes) == processes
    assert counters["ext2ph.park_single"] + counters.get("ext2ph.park_live", 0) == (
        workload.nprocs * sum(s.kind == "collective" for s in workload.steps) * kwargs.get("num_files", 1)
    )
    return counters


@pytest.fixture
def wake_instants(monkeypatch):
    """The instants the clocks schedule their writers' wake events at, in
    scheduling order — the order a bucket of equal instants fires in."""
    wakes = []
    schedule_at = SlottedSimulator._schedule_at

    def spy(sim, event, when):
        if event.name == "write_all:wake":
            wakes.append(when)
        schedule_at(sim, event, when)

    monkeypatch.setattr(SlottedSimulator, "_schedule_at", spy)
    return wakes


def windows(nprocs, starts, piece=2 * KiB):
    """Every rank writes ``piece`` bytes at its own place in each of the
    ``nprocs * piece``-byte windows that begin at ``starts``."""
    return [[(start + r * piece, piece) for start in starts] for r in range(nprocs)]


# Two aggregators, 48 KiB domains (six 8 KiB stripes each), 16 KiB buffers:
# three rounds.  name -> (the 16 KiB windows written, what it is about)
ROUNDS = {
    # nobody receives anything in the middle round: it chains arithmetically
    "writer_less_round_in_the_middle": [0, 32 * KiB, 48 * KiB, 80 * KiB],
    # aggregator 0 writes round 0 only, aggregator 1 round 2 only: rounds
    # with one writer, a writer that is done early, one that starts late
    "one_writer_early_one_late": [0, 80 * KiB],
    # the last two rounds are writer-less: straight to the post-write release
    "writer_less_tail": [0, 48 * KiB],
    # nothing in round 0: the first wake is two rounds after the exchange
    "writer_less_head": [32 * KiB, 80 * KiB],
}


def test_those_who_wait_out_a_round_keep_their_order(wake_instants):
    """Three aggregators: the first writes round 0 alone, the other two wait
    it out and then receive equal buffers — due at one instant, woken in the
    order they arrived in; the third writes once more."""
    calls = [windows(8, [0, 64 * KiB, 112 * KiB, 128 * KiB])]
    counters = assert_clock_equals_live(workload_of(calls, 8), hints(cb_nodes=3), processes=4)
    assert counters["ext2ph.park_live"] == 3
    wakes = wake_instants
    assert len(wakes) == 4 and wakes[1] == wakes[2] and len(set(wakes)) == 3


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_rounds_nobody_writes_in(name):
    calls = [windows(8, ROUNDS[name]), windows(8, [s + 96 * KiB for s in ROUNDS[name]])]
    counters = assert_clock_equals_live(
        workload_of(calls, 8), hints(cb_nodes=2), processes=3, num_files=2
    )
    assert counters["ext2ph.park_live"] == 2 * 2 * 2  # both aggregators write, every call


def test_starting_totals_differ_from_process_to_process():
    """Call by call another aggregator writes, so by the third call every
    process brings phase totals of its own — and each ends with exactly the
    floats its own ``lap`` calls would have accumulated."""
    calls = [
        windows(8, [0, 80 * KiB]),
        windows(8, [96 * KiB]),  # one 16 KiB window: aggregator 0 alone, one round
        windows(8, [128 * KiB + 80 * KiB]),  # aggregator 1 alone, in its last round
        windows(8, [256 * KiB, 256 * KiB + 32 * KiB, 256 * KiB + 48 * KiB]),
    ]
    assert_clock_equals_live(workload_of(calls, 8), hints(cb_nodes=2), processes=3)
    observed, _, _ = run_job("production", workload_of(calls, 8), hints(cb_nodes=2))
    totals = {tuple(sorted(p.items())) for p in observed["profiles"].values()}
    assert len(totals) == 3  # aggregator 0, aggregator 1, the class of six


@pytest.mark.parametrize("aggregators", [None, "odd"], ids=["rank0_aggregates", "rank0_waits"])
def test_flash_io_24_calls_2_files_at_64_aggregators(aggregators):
    """One 64 KiB variable a call: eight of the 64 aggregators receive, 56
    are idle; rank 0 writes a header before each call and arrives last — as
    an aggregator, or as one more process that only waits."""
    workload = flashio_workload(128, blocks_per_proc=1, zones_per_dim=4)
    assert sum(step.kind == "collective" for step in workload.steps) == 24
    placed = None if aggregators is None else list(range(1, 128, 2))
    counters = assert_clock_equals_live(
        workload,
        hints(cb_nodes=64),
        processes=65 if placed is None else 66,
        nodes=64,
        num_files=2,
        aggregators=placed,
    )
    assert counters["ext2ph.park_live"] == 2 * 24 * 8


def test_coll_perf_with_more_than_one_round():
    workload = collperf_workload(16, block_bytes=64 * KiB)
    counters = assert_clock_equals_live(
        workload, hints(cb_nodes=4, cb_buffer_size="64k"), processes=5, nodes=8, num_files=2
    )
    assert counters["ext2ph.park_live"] == 2 * 4


@pytest.mark.parametrize("nodes", [8, 64])
def test_ior_with_an_aggregator_a_node(nodes):
    workload = ior_workload(2 * nodes, block_bytes=16 * KiB, segments=2)
    counters = assert_clock_equals_live(
        workload, hints(cb_nodes=nodes), processes=nodes + 1, nodes=nodes, num_files=2
    )
    assert counters["ext2ph.park_live"] == 2 * 2 * nodes  # everyone writes, every round


DEGENERATE = {
    # over at the offset exchange's release, for everybody: no post-write
    "all_empty_call_between_two_writes": (
        {},
        [strided(8), [[] for _ in range(8)], strided(8, base=256 * KiB)],
    ),
    "all_empty_only": ({}, [[[] for _ in range(8)]]),
}


@pytest.mark.parametrize("name", sorted([*DEGENERATE, "no_rounds"]))
def test_degenerate_calls_run_on_the_clock_too(name):
    """One rule: a call that may take the clock takes it.  An all-empty
    call ends where the live path returns.  A call over a region but
    without rounds drops its bytes: the clock refuses it by the name both
    round-by-round oracles do."""
    if name == "no_rounds":
        assert_no_rounds_fails_by_name("clock", "reference", "live", num_files=2)
        return
    kwargs, calls = DEGENERATE[name]
    counters = assert_clock_equals_live(
        workload_of(calls, 8), hints(cb_nodes=2), processes=3, num_files=2, **kwargs
    )
    writing = sum(bool(any(call)) for call in calls)
    assert counters.get("ext2ph.park_live", 0) == 2 * 2 * writing


def test_deferred_close_with_the_cache():
    assert_clock_equals_live(
        workload_of([windows(8, ROUNDS["one_writer_early_one_late"]), strided(8, base=256 * KiB)], 8),
        {**hints(cb_nodes=2), **CACHE_HINTS},
        processes=3,
        num_files=3,
        deferred_close=True,
    )


def test_two_equal_writers_land_in_one_bucket(wake_instants):
    """Both aggregators receive the same bytes in the same pieces: their
    wake events are due at one float instant and fire in the order the live
    ranks' deadlines were created — arrival order at the round's first slot."""
    assert_clock_equals_live(workload_of([strided(8)], 8), hints(cb_nodes=2), processes=3)
    wakes = wake_instants
    assert len(wakes) == 2 * 4 and wakes[0::2] == wakes[1::2]  # four rounds, a pair each


def test_a_second_program_with_another_class_partition():
    """Three programs on one world — 2, 4, then 2 aggregators: the classes
    regroup between them (nothing runs on a clock then) and every program
    agrees with the oracles."""
    workload = workload_of([windows(8, ROUNDS["one_writer_early_one_late"]), strided(8, base=96 * KiB)], 8)

    def run(**machine_kwargs):
        machine = Machine(small_testbed(), **machine_kwargs)
        world = MPIWorld(machine)
        layer = MPIIOLayer(machine, world.comm, exchange_mode="model")
        timings, partitions = [], []
        for prefix, cb_nodes in (("/g/a", 2), ("/g/b", 4), ("/g/c", 2)):
            body = multi_phase_body(
                layer, workload, hints(cb_nodes=cb_nodes), num_files=2, compute_delay=0.5, file_prefix=prefix
            )
            timings.append(world.run(body))
            partitions.append(len(world.classes))
        profiles = {
            (path, rank): dict(prof.profile.seconds)
            for path, (fd,) in layer._open_slots.items()
            for rank, prof in fd.profilers.items()
        }
        pinned = [n.peak_pinned_bytes for n in machine.nodes]
        return (timings, profiles, machine.sim.now, pinned, dict(machine.io_stats)), partitions

    clock, partitions = run()
    assert partitions == [3, 5, 3]
    for oracle in ({"reference": True}, {"faults": quiet_faults(small_testbed())}):
        live, singles = run(**oracle)
        assert singles == [8, 8, 8] and live == clock


# ---------------------------------------------------------------------------
# Strided descriptors x aggregator counts x buffer sizes
# ---------------------------------------------------------------------------


@st.composite
def strided_jobs(draw):
    nodes = draw(st.integers(2, 4))
    ppn = draw(st.integers(1, 3))
    nprocs = nodes * ppn
    length = draw(st.sampled_from([512, 3000, 8 * KiB]))
    # Ranks interleave inside one item of the innermost level and never
    # overlap: every stride covers all ranks' items of the level below.
    levels, span = [], nprocs * length
    for _ in range(draw(st.integers(0, 2))):  # innermost first
        count = draw(st.integers(1, 3))
        stride = span + draw(st.sampled_from([0, 0, 512, 5 * KiB]))
        levels.insert(0, (count, stride))
        span += (count - 1) * stride
    bases = np.arange(nprocs, dtype=np.int64) * length
    gap = draw(st.sampled_from([0, 8 * KiB]))
    tables = [
        AccessTable.strided(bases + k * (span + gap), tuple(levels), length)
        for k in range(draw(st.integers(1, 2)))
    ]
    steps = tuple(IOStep.collective(lambda table=table: table) for table in tables)
    return {
        "nodes": nodes,
        "ppn": ppn,
        "workload": Workload("strided", nprocs, steps, 0, 0),
        "info": hints(
            cb_nodes=draw(st.integers(1, nodes)),
            cb_buffer_size=draw(st.sampled_from(["2k", "16k", "1m"])),
        ),
        "files": draw(st.integers(1, 2)),
        "cache": draw(st.booleans()),
    }


@settings(max_examples=25, deadline=None)
@given(job=strided_jobs())
def test_strided_descriptors(job):
    info = {**job["info"], **(CACHE_HINTS if job["cache"] else {})}
    assert_clock_equals_live(
        job["workload"],
        info,
        nodes=job["nodes"],
        ppn=job["ppn"],
        num_files=job["files"],
        deferred_close=job["cache"],
    )
    assert not any("offsets" in vars(step.table()) for step in job["workload"].steps)


# ---------------------------------------------------------------------------
# Who wakes for what
# ---------------------------------------------------------------------------

def collective_resumes(monkeypatch, kind, workload, info, **kwargs):
    """Run the job; count, by process name, the resumes that found the
    process waiting in the collective write itself (its offset exchange, its
    rounds, its assembly deadline, its post-write allreduce) — not in the
    I/O it does there, nor in open, close or compute."""
    tally = Counter()
    resume = Process._resume

    def counted(proc, event):
        gen, inside = proc.gen, False
        while getattr(gen.gi_yieldfrom, "gi_code", None) is not None:
            inside = inside or gen.gi_code.co_filename.endswith("ext2ph.py")
            gen = gen.gi_yieldfrom
        code = gen.gi_code
        if code.co_filename.endswith("ext2ph.py") or (inside and code.co_name == "enter"):
            tally[proc.name] += 1
        resume(proc, event)

    with monkeypatch.context() as patch:
        patch.setattr(Process, "_resume", counted)
        run_job(kind, workload, info, **kwargs)
    return tally


def test_resume_arithmetic_when_every_aggregator_writes_every_round(monkeypatch):
    """IOR, 4 aggregators, 2 rounds a call, 2 calls a file, 2 files.  On the
    clock an aggregator is resumed once per round it writes and once when
    the call is over, the class of followers once a call.  The live loop
    resumes each of them at the offset exchange, twice a round (``a2a``,
    ``x``), at its deadline and at the post-write allreduce:
    ``saved = aggregator_calls + 2 * writer_rounds``."""
    workload = ior_workload(8, block_bytes=16 * KiB, segments=2)
    info = hints(cb_nodes=4)
    clock = collective_resumes(monkeypatch, "production", workload, info, num_files=2)
    live = collective_resumes(
        monkeypatch, "production", workload, info, num_files=2, faults=quiet_faults(small_testbed())
    )
    aggregators = [f"rank{r}" for r in (0, 2, 4, 6)]
    calls, rounds = 2 * 2, 2
    assert clock == {**{name: calls * (rounds + 1) for name in aggregators}, "rank1+3": calls}
    assert all(live[name] == calls * (1 + 3 * rounds + 1) for name in aggregators)
    aggregator_calls, writer_rounds = 4 * calls, 4 * calls * rounds
    saved = sum(live[name] - clock[name] for name in aggregators)
    assert saved == aggregator_calls + 2 * writer_rounds


def test_resume_arithmetic_with_idle_aggregators(monkeypatch):
    """Flash-IO shaped, 8 ranks, 2 aggregators of which one receives in a
    call: the idle one is resumed once a call, like every process that only
    waits; the live loop walks it through the exchange, both slots of the
    one round and the allreduce."""
    workload = flashio_workload(8, blocks_per_proc=1, zones_per_dim=4)
    info = hints(cb_nodes=2)
    clock = collective_resumes(monkeypatch, "production", workload, info)
    live = collective_resumes(
        monkeypatch, "production", workload, info, faults=quiet_faults(small_testbed())
    )
    assert clock["rank1+5"] == 24 and clock["rank0"] + clock["rank4"] == 24 * (2 + 1)
    assert live["rank0"] + live["rank4"] == 24 * (4 + 5)
    assert sum(clock.values()) == 24 * 3 + 24  # processes x calls + writer rounds


# ---------------------------------------------------------------------------
# The clock refuses misuse by name
# ---------------------------------------------------------------------------

def run_body(per_rank=None):
    """One file, one ``write_all`` of ``strided(8)`` with ranks 1, 3, 5, 6, 7
    following as one class (``FOLLOWERS``; the aggregators are 0 and 4);
    ``per_rank[rank](fh, table)`` replaces a rank's plain ``write_all``."""
    _machine, world, layer = production_cluster()
    table = table_of(strided(8))

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/f", hints(cb_nodes=2))
        act = (per_rank or {}).get(ctx.rank)
        if act is None:
            yield from fh.write_all(table.rank(ctx.rank))
        else:
            yield from act(fh, table)
        yield from fh.close()

    body.rank_classes = lambda: FOLLOWERS
    world.run(body)
    return world


def test_a_report_from_a_round_the_rank_does_not_write_is_refused(monkeypatch):
    report = ext2ph.CallClock.report
    monkeypatch.setattr(ext2ph.CallClock, "report", lambda clock, rank, r: report(clock, rank, r + 1))
    with pytest.raises(
        SimError,
        match=r"collective call 0 of /g/f: rank [04] reports back from round 1, which it "
        r"does not write \(the clock is at round 0\)",
    ):
        run_body()
    monkeypatch.setattr(ext2ph.CallClock, "report", lambda clock, rank, r: report(clock, 1, r))
    with pytest.raises(SimError, match="call 0 of /g/f: rank 1 reports back from round 0"):
        run_body()


def test_a_rank_arriving_twice_at_one_call_is_refused():
    def twice(fh, table):
        fh.write_all(table.rank(2))
        yield from fh.write_all(table.rank(2))

    with pytest.raises(SimError, match="/g/f: rank 2 arrives twice at collective call 0"):
        run_body({2: twice})  # not the last to arrive: the call is still open


def test_a_post_write_release_ahead_of_its_writers_is_refused(monkeypatch):
    start = ext2ph.CallClock._start

    def early(clock, event):
        start(clock, event)
        clock.release.succeed()  # somebody else fires it: both writers are still out

    monkeypatch.setattr(ext2ph.CallClock, "_start", early)
    with pytest.raises(
        SimError,
        match=r"call 0 of /g/f: the post-write release is reached with 2 of 4 processes "
        r"arrived \(the clock is at round 0 of 4\)",
    ):
        run_body()


def test_classes_cannot_change_while_a_clock_runs(monkeypatch):
    start = ext2ph.CallClock._start

    def regroup(clock, event):
        start(clock, event)
        clock.fd.comm.set_classes([(r,) for r in range(8)])

    monkeypatch.setattr(ext2ph.CallClock, "_start", regroup)
    with pytest.raises(
        SimError,
        match="rank classes cannot change while collective call 0 of /g/f runs on its clock",
    ):
        run_body()


def test_a_member_off_its_representatives_call_is_refused():
    def with_a_member_of_its_own(fh, table):
        stray = MPIFileHandle(fh.layer, fh.fd, 3)  # rank 3 follows rank 1
        yield from stray.write_all(table.rank(3))

    with pytest.raises(
        SimError,
        match="/g/f: rank 3 arrives at collective call 0 on its own, off the call of "
        "rank 1, which arrives for its class",
    ):
        run_body({1: with_a_member_of_its_own})


def test_the_clock_lets_go_of_the_classes_when_the_call_is_over():
    world = run_body()
    assert world.comm._model.clock is None
    world.comm.set_classes([(r,) for r in range(8)])
