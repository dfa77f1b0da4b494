"""One resume a call == round by round.

On the production stack a collective write runs on its clock
(``ext2ph.CallClock``, unit-tested in tests/romio/test_call_clock.py): the
non-aggregator ranks run as one process (a rank class,
``tests/mpi/test_rank_classes.py``) and every process that does not write
crosses the call on one resume; the reference stack
(``Machine(reference=True)``: heapq engine, naive fabric, every chunk an
event) keeps one process per rank and the round-by-round walk for every one
of them.  The same job on both must agree on every lap and every timestamp:
per-rank ``PhaseTiming``s, per-rank profile dicts, the clock at each rank's
calls (a class's members all stand where their representative does), and
the bytes persisted.  On the production stack itself, event counts differ
from one process per rank by exactly the events of the processes the class
saves: per member but the first, an init kick, a completion and one timeout
per compute phase.  ``ext2ph.park_single`` counts the ranks that crossed a
call on one resume (everyone but the aggregators that wrote),
``ext2ph.park_live`` the rest.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import AccessTable
from repro.config import small_testbed
from repro.fleet import JobView
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.mpiwrap import MPIWrap, WrapConfig
from repro.romio.adio import BeeGFSDriver
from repro.romio.aggregation import FileDomain
from repro.romio.file import MPIIOLayer
from repro.sim.core import SimError
from repro.sim.profile import SimProfiler
from repro.units import KiB
from repro.workloads.base import IOStep, Workload
from repro.workloads.flashio import flashio_workload
from repro.workloads.phases import multi_phase_body
from tests.conftest import grant_events, walking

BASE_HINTS = {
    "cb_buffer_size": "16k",
    "romio_cb_write": "enable",
    "striping_unit": "8k",
    "striping_factor": "2",
}
CACHE_HINTS = {
    "e10_cache": "enable",
    "e10_cache_flush_flag": "flush_immediate",
    "e10_cache_discard_flag": "enable",
}


class _TracedStep(IOStep):
    """A collective step that notes, per rank, the clock at the moment the
    rank (for a class: its representative) asks for its access — just
    before each ``write_all``."""

    def access_fn(self, rank, profiler=None):
        self.trace.setdefault(rank, []).append(self.sim.now)
        return super().access_fn(rank, profiler)


def table_of(extents_per_rank):
    """One table from per-rank ``[(offset, length), ...]`` lists."""
    counts = [len(e) for e in extents_per_rank]
    flat = [x for e in extents_per_rank for x in e]
    offsets = np.array([o for o, _ in flat], dtype=np.int64)
    lengths = np.array([n for _, n in flat], dtype=np.int64)
    return AccessTable(offsets, lengths, np.concatenate(([0], np.cumsum(counts))))


def strided(nprocs, base=0, block=4 * KiB, reps=4):
    return [
        [(base + r * block + k * nprocs * block, block) for k in range(reps)]
        for r in range(nprocs)
    ]


def workload_of(calls, nprocs):
    """A recipe with one collective step per entry of ``calls``."""
    steps = tuple(
        IOStep.collective(lambda extents=extents: table_of(extents)) for extents in calls
    )
    return Workload("case", nprocs, steps, bytes_per_rank=0, file_size=0)


class _NoDomains(BeeGFSDriver):
    """A driver that hands every aggregator an empty domain: ``ntimes`` is 0
    although the accessed region is not empty."""

    def partition_domains(self, fd, min_st, max_end):
        return [FileDomain(a, 0, 0) for a in fd.aggregators]


def machine_config(nodes=4, ppn=2, placement=None, **_):
    """The cluster ``run_job`` builds for these keyword arguments."""
    return small_testbed(nodes if placement is None else max(placement) + 1, ppn)


def run_job(
    kind,
    workload,
    hints,
    nodes=4,
    ppn=2,
    aggregators=None,
    driver=None,
    num_files=1,
    deferred_close=False,
    placement=None,
    wrap=None,
    classes=None,
    walk=False,
    **machine_kwargs,
):
    """Run ``workload`` on stack ``kind`` (``"production"`` or
    ``"reference"``); return everything that must not depend on the stack
    or on how many processes stood for the ranks, the run's profiler
    counters, and the events it fired for which classes.

    ``placement`` runs it as a fleet job on those nodes of a larger machine,
    ``wrap`` through an ``MPIWrap`` configured by that text, ``classes``
    under a partition no program would declare, ``walk`` with the clock
    refused and every device and server granting through events
    (``tests.conftest.walking``, ``grant_events``)."""
    profiler = SimProfiler()
    machine = target = Machine(
        machine_config(nodes, ppn, placement),
        profiler=profiler,
        reference={"production": False, "reference": True}[kind],
        **machine_kwargs,
    )
    if walk:
        grant_events(machine)
    if placement is not None:
        target = JobView(machine, 3, placement)
    world = MPIWorld(target)
    layer = MPIIOLayer(target, world.comm, driver="beegfs")
    if driver is not None:
        layer.driver = driver
    trace = {}
    steps = []
    for step in workload.steps:
        if step.kind == "collective":
            step = _TracedStep(kind="collective", table_fn=step.table_fn)
            step.sim, step.trace = machine.sim, trace
        steps.append(step)
    traced = Workload(workload.name, workload.nprocs, tuple(steps), 0, 0)
    body = multi_phase_body(
        layer,
        traced,
        hints,
        num_files=num_files,
        compute_delay=0.5,
        deferred_close=deferred_close,
        file_prefix="/g/f",
        wrapper=None if wrap is None else MPIWrap(layer, WrapConfig.parse(wrap)),
    )
    if classes is not None:
        body.rank_classes = lambda: classes
    with contextlib.ExitStack() as patched:
        if aggregators is not None:  # a placement select_aggregators never produces (it keeps node 0)
            patched.enter_context(
                mock.patch("repro.romio.file.select_aggregators", lambda *a, **k: list(aggregators))
            )
        if walk:
            patched.enter_context(walking())
        timings = world.run(body)
    profiles, persisted = {}, {}
    for path, slots in sorted(layer._open_slots.items()):
        for gen, fd in enumerate(slots):
            assert list(fd.profilers) == list(range(world.comm.size))  # rank order
            for rank, prof in fd.profilers.items():
                profiles[path, gen, rank] = dict(prof.profile.seconds)
        f = machine.pfs.lookup(path)
        persisted[path] = (f.persisted.total, list(f.persisted))
    observed = {
        "timings": timings,
        "profiles": profiles,
        # every member of a class stood where its representative did
        "trace": {r: trace.get(ranks[0], []) for ranks in world.classes for r in ranks},
        "persisted": persisted,
        "end": machine.sim.now,
        "peak_pinned": [n.peak_pinned_bytes for n in machine.nodes],
        "ledgers": (dict(machine.io_stats), dict(machine.cache_stats)),
    }
    return observed, profiler.counters, (machine.sim.events_fired, world.classes)


def assert_engines_agree(workload, hints, num_files=1, **kwargs):
    """Run on both stacks (both engines), compare, and return the
    production run's counters."""
    production, counters, (events, classes) = run_job(
        "production", workload, hints, num_files=num_files, **kwargs
    )
    reference, ref_counters, (_, singles) = run_job(
        "reference", workload, hints, num_files=num_files, **kwargs
    )
    # the oracle: every rank a process of its own ...
    assert singles == [(r,) for r in range(workload.nprocs)]
    assert "ext2ph.park_single" not in ref_counters  # ... that walks every round
    for what in production:
        assert production[what] == reference[what], what
    # What the classes save, counted on the production stack (the reference
    # fires more events for other reasons too): init kick + completion + one
    # compute timeout between files, per process.
    alone, _, (alone_events, _) = run_job(
        "production", workload, hints, num_files=num_files, classes=singles, **kwargs
    )
    assert alone == production
    assert alone_events - events == (len(singles) - len(classes)) * (2 + num_files - 1)
    return counters


def hints(**extra):
    return {**BASE_HINTS, **{k: str(v) for k, v in extra.items()}}


# name -> (run_job keyword arguments, calls, hints, rank-calls expected to take one resume)
CASES = {
    "plain": ({}, [strided(8)], hints(cb_nodes=2), 6),
    "rank0_not_an_aggregator": (
        {"aggregators": [2, 5]},
        [strided(8), strided(8, base=256 * KiB)],
        hints(cb_nodes=2),
        12,
    ),
    "ranks_not_divisible_by_aggregators": (
        {"nodes": 5, "ppn": 2},
        [strided(10), strided(10, base=512 * KiB, reps=3)],
        hints(cb_nodes=3),
        14,
    ),
    "idle_aggregators": (  # two 8 KiB stripes, four aggregators
        {},
        [[[(r * 2 * KiB, 2 * KiB)] for r in range(8)]],
        hints(cb_nodes=4),
        6,  # the two idle aggregators too
    ),
    "ranks_with_empty_accesses": (
        {},
        [[e if r % 3 else [] for r, e in enumerate(strided(8))]],
        hints(cb_nodes=2),
        6,
    ),
    "all_empty_call_between_two_writes": (
        {},
        [strided(8), [[] for _ in range(8)], strided(8, base=256 * KiB)],
        hints(cb_nodes=2),
        20,  # the empty call is over at the exchange's release, for all eight
    ),
    "one_rank_per_node": (
        {"nodes": 4, "ppn": 1},
        [strided(4)],
        hints(cb_nodes=4),
        0,  # every rank is an aggregator, and writes
    ),
    "cb_write_automatic": ({}, [strided(8)], hints(cb_nodes=2, romio_cb_write="automatic"), 0),
    "many_rounds": ({}, [strided(8, block=16 * KiB, reps=6)], hints(cb_nodes=2, cb_buffer_size="8k"), 6),
}


def assert_no_rounds_fails_by_name(*legs, **kwargs):
    """A region but no domain (``_NoDomains``): no round, so nobody writes —
    the clock goes straight to the post-write release, the walk to its
    allreduce, and every leg (``"clock"``: production; ``"reference"``;
    ``"live"``: production walking, ``run_job(walk=True)``) refuses a call
    that handed none of its bytes on."""
    message = "/g/f0: collective call 0 handed 0 bytes to write_contig, but its ranks cover 131072"
    for leg in legs:
        with pytest.raises(SimError, match=message):
            run_job(
                "reference" if leg == "reference" else "production",
                workload_of([strided(8)], 8),
                hints(cb_nodes=2),
                driver=_NoDomains(),
                walk=leg == "live",
                **kwargs,
            )


@pytest.mark.parametrize("name", sorted([*CASES, "no_rounds"]))
def test_case_agrees_on_both_engines(name):
    if name == "no_rounds":  # both stacks refuse it, by the same name
        assert_no_rounds_fails_by_name("clock", "reference")
        return
    kwargs, calls, case_hints, parked = CASES[name]
    nprocs = kwargs.get("nodes", 4) * kwargs.get("ppn", 2)
    counters = assert_engines_agree(workload_of(calls, nprocs), case_hints, **kwargs)
    assert counters.get("ext2ph.park_single", 0) == parked
    rank_calls = nprocs * len(calls)
    assert counters.get("ext2ph.park_live", 0) == rank_calls - parked


def test_automatic_stays_live():
    """``romio_cb_write=automatic`` waits for the interleaving test: no
    clock, every rank a process that walks round by round — same result."""
    live, _, (_, singles) = run_job(
        "production", workload_of([strided(8)], 8), hints(cb_nodes=2, romio_cb_write="automatic")
    )
    parked, _, (_, classes) = run_job("production", workload_of([strided(8)], 8), hints(cb_nodes=2))
    assert live == parked
    assert (len(singles), len(classes)) == (8, 3)  # no class either, under ``automatic``


def test_deferred_close_with_the_cache():
    counters = assert_engines_agree(
        workload_of([strided(8), strided(8, base=256 * KiB)], 8),
        {**hints(cb_nodes=2), **CACHE_HINTS},
        num_files=3,
        deferred_close=True,
    )
    assert counters["ext2ph.park_single"] == 3 * 2 * 6


@pytest.mark.parametrize("aggregators", [None, [3, 6]], ids=["rank0_aggregates", "rank0_parks"])
def test_flash_io_shaped_file(aggregators):
    """24 collective calls with a rank-0 header write before each: rank 0
    reaches every offset exchange after the others — as an aggregator, or
    as the last of those that only wait, with a lap of its own.  One of the
    two aggregators receives nothing in a call: seven ranks take one resume."""
    workload = flashio_workload(8, blocks_per_proc=1, zones_per_dim=4)
    assert sum(step.kind == "collective" for step in workload.steps) == 24
    counters = assert_engines_agree(
        workload, hints(cb_nodes=2), num_files=2, aggregators=aggregators
    )
    assert counters["ext2ph.park_single"] == 2 * 24 * 7
    assert counters["ext2ph.park_live"] == 2 * 24 * 1


@pytest.mark.parametrize(
    "walk",
    [False, True],  # the chunked plane lives on in the reference stack
    ids=["chunked_plane", "clock_refused"],
)
def test_machines_that_keep_the_round_by_round_path(walk):
    profiler = SimProfiler()
    machine = Machine(small_testbed(), profiler=profiler, reference=not walk)
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm)
    workload = workload_of([strided(8)], 8)
    with walking() if walk else contextlib.nullcontext():
        world.run(multi_phase_body(layer, workload, hints(cb_nodes=2), num_files=1))
    assert "ext2ph.park_single" not in profiler.counters
    assert profiler.counters["ext2ph.park_live"] == 8


@st.composite
def jobs(draw):
    nodes = draw(st.integers(2, 4))
    ppn = draw(st.integers(1, 3))
    nprocs = nodes * ppn
    ncalls = draw(st.integers(1, 3))
    block = draw(st.sampled_from([512, 3 * KiB, 8 * KiB]))
    calls = []
    base = 0
    for _ in range(ncalls):
        slots = draw(st.integers(0, 3))
        # Each rank owns the cells r, r + P, r + 2P, ... of a grid of
        # ``block``-sized cells and fills a drawn subset of them: no two
        # ranks overlap, holes and empty ranks happen.
        extents = []
        for r in range(nprocs):
            picked = draw(st.lists(st.booleans(), min_size=slots, max_size=slots))
            extents.append(
                [
                    (base + (k * nprocs + r) * block, draw(st.integers(1, block)))
                    for k, take in enumerate(picked)
                    if take
                ]
            )
        calls.append(extents)
        base += slots * nprocs * block
    return {
        "nodes": nodes,
        "ppn": ppn,
        "calls": calls,
        "cb_nodes": draw(st.integers(1, nodes)),
        "cb": draw(st.sampled_from(["2k", "16k", "1m"])),
        "cb_write": draw(st.sampled_from(["enable", "enable", "automatic"])),
        "files": draw(st.integers(1, 2)),
    }


@settings(max_examples=30, deadline=None)
@given(job=jobs())
def test_random_jobs_agree_on_both_engines(job):
    nprocs = job["nodes"] * job["ppn"]
    assert_engines_agree(
        workload_of(job["calls"], nprocs),
        hints(cb_nodes=job["cb_nodes"], cb_buffer_size=job["cb"], romio_cb_write=job["cb_write"]),
        nodes=job["nodes"],
        ppn=job["ppn"],
        num_files=job["files"],
    )
