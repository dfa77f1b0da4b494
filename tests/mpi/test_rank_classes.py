"""Rank classes == ranks.

A phased workload runs the ranks that only follow — neither rank 0 nor an
aggregator — as *one* process where it is certain before the run that they
would park on every collective write (production stack, no fault injector,
``romio_cb_write=enable``, model exchange, no wrapper, no payload);
everywhere else every rank is a process of its own.  The two are the same
code (a rank on its own is a class of one), selected by the gates that
already exist, so the oracle for the class path is the same program on the
reference stack (``heapq``: the heapq engine and everything under it) or on
a production machine whose every device and server a fault schedule that
never fires has scoped onto its chunked body (``chunked``): every rank's
``PhaseTiming`` list, every rank's phase seconds per file and open
generation, the persisted intervals, the clock and the pinned-memory peak
must agree; only the event count may differ.  Class membership must not depend on set order: CI runs
this file once more under ``PYTHONHASHSEED=random``.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import RankAccess
from repro.config import small_testbed
from repro.experiments.runner import ExperimentSpec, build_workload, run_experiment
from repro.faults.spec import FaultSchedule
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio.file import MPIIOLayer
from repro.romio.hints import Hints
from repro.sim.core import SimError
from repro.units import KiB, MiB
from repro.workloads import base as workloads_base
from repro.workloads.base import IOStep, Workload
from repro.workloads.flashio import flashio_workload
from repro.workloads.phases import multi_phase_body
from tests.conftest import quiet_faults
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


def run_program(kind, workload, info, **kwargs):
    """``run_job`` of tests/romio/test_park_once.py: what must not depend on
    how many processes ran the program, and the classes they stood for."""
    observed, _counters, (_events, classes) = run_job(kind, workload, info, **kwargs)
    return observed, classes


def assert_classes_equal_ranks(workload, info, processes, oracle="heapq", **kwargs):
    """The class run (production) against every rank on its own."""
    classed, classes = run_program("production", workload, info, **kwargs)
    if oracle == "chunked":
        alone, singles = run_program(
            "production", workload, info, faults=quiet_faults(machine_config(**kwargs)), **kwargs
        )
    else:
        alone, singles = run_program("reference", workload, info, **kwargs)
    assert singles == [(r,) for r in range(workload.nprocs)]
    assert len(classes) == processes
    assert len(classed["timings"]) == workload.nprocs
    for what in classed:
        assert classed[what] == alone[what], what


# name -> (run_program keyword arguments, calls, hints, processes of the class run)
CASES = {
    "few_aggregators_eight_style": (  # 2 aggregators on 8 nodes: 29 ranks follow
        {"nodes": 8, "ppn": 4},
        [strided(32), strided(32, base=1024 * KiB)],
        hints(cb_nodes=2),
        3,
    ),
    "one_aggregator_a_node_64_style": (
        {"nodes": 8, "ppn": 4},
        [strided(32)],
        hints(cb_nodes=8),
        9,
    ),
    "rank0_not_on_an_aggregator_node": (  # rank 0 parks too, on its own
        {"aggregators": [2, 5]},
        [strided(8), strided(8, base=256 * KiB)],
        hints(cb_nodes=2),
        4,
    ),
    "cb_config_spread_on": (
        {"nodes": 6, "ppn": 2},
        [strided(12)],
        hints(cb_nodes=3, cb_config_spread="enable"),
        4,
    ),
    "cb_config_spread_off": (
        {"nodes": 6, "ppn": 2},
        [strided(12)],
        hints(cb_nodes=3, cb_config_spread="disable"),
        4,
    ),
    "all_empty_call_between_two_writes": (
        {},
        [strided(8), [[] for _ in range(8)], strided(8, base=256 * KiB)],
        hints(cb_nodes=2),
        3,
    ),
    "idle_aggregators": (  # two 8 KiB stripes, four aggregators
        {},
        [[[(r * 2 * KiB, 2 * KiB)] for r in range(8)]],
        hints(cb_nodes=4),
        5,
    ),
    "ranks_not_divisible_by_aggregators": (
        {"nodes": 5, "ppn": 2},
        [strided(10), strided(10, base=512 * KiB, reps=3)],
        hints(cb_nodes=3),
        4,
    ),
    "fleet_job_on_non_contiguous_nodes": (
        {"placement": (1, 3, 4, 6), "ppn": 2},
        [strided(8), strided(8, base=256 * KiB)],
        hints(cb_nodes=2),
        3,
    ),
}


@pytest.mark.parametrize("oracle", ["heapq", "chunked"])
@pytest.mark.parametrize("name", sorted([*CASES, "no_rounds"]))
def test_case(name, oracle):
    if name == "no_rounds":  # the class run and its oracle refuse it, by the same name
        legs = ("clock", {"heapq": "reference", "chunked": "live"}[oracle])
        assert_no_rounds_fails_by_name(*legs, num_files=2)
        return
    kwargs, calls, info, processes = CASES[name]
    nprocs = len(calls[0])
    assert_classes_equal_ranks(
        workload_of(calls, nprocs), info, processes, oracle=oracle, num_files=2, **kwargs
    )


def test_deferred_close_with_the_cache():
    assert_classes_equal_ranks(
        workload_of([strided(8), strided(8, base=256 * KiB)], 8),
        {**hints(cb_nodes=2), **CACHE_HINTS},
        3,
        num_files=3,
        deferred_close=True,
    )


@pytest.mark.parametrize("aggregators", [None, [3, 6]], ids=["rank0_aggregates", "rank0_parks"])
def test_flash_io_shaped_file(aggregators):
    """24 collective calls a file, a rank-0 header write before each."""
    workload = flashio_workload(8, blocks_per_proc=1, zones_per_dim=4)
    assert sum(step.kind == "collective" for step in workload.steps) == 24
    assert any(step.kind == "rank0" for step in workload.steps)
    assert_classes_equal_ranks(
        workload,
        hints(cb_nodes=2),
        3 if aggregators is None else 4,
        num_files=2,
        aggregators=aggregators,
    )


@contextlib.contextmanager
def spawned(classes=True):
    """How many processes each ``MPIWorld.spawn`` inside started (without
    ``classes``: of bodies made to forget the classes they declare)."""
    counts = []
    spawn = MPIWorld.spawn

    def counting(world, body):
        if not classes:
            body.rank_classes = None
        procs = spawn(world, body)
        counts.append(len(procs))
        return procs

    with mock.patch.object(MPIWorld, "spawn", counting):
        yield counts


@pytest.mark.parametrize("aggregators, processes", [(8, 9), (64, 65)])
def test_a_grid_point_at_512_ranks(aggregators, processes):
    """``run_experiment``: aggregators + 1 processes for 512 ranks, and the
    public result equal to the one-process-per-rank stack's but for the
    event count, which on the production stack drops by what the saved
    processes fired."""
    spec = ExperimentSpec(
        "coll_perf", aggregators, 8 * MiB, "enabled", num_files=2, scale=0.001, seed=7
    )
    results = {}
    for kind in ("classes", "alone", "reference"):
        with spawned(classes=kind == "classes") as counts:
            results[kind] = run_experiment(spec, reference=kind == "reference").to_dict()
        assert counts == [processes if kind == "classes" else 512]
    saved = results["alone"].pop("events") - results["classes"].pop("events")
    assert saved == (512 - processes) * 3  # init, one compute timeout, completion
    del results["reference"]["events"]
    assert results["classes"] == results["alone"] == results["reference"]


def test_a_class_run_flattens_no_table(monkeypatch):
    """The class registers its members by table identity and weight: only
    the nine processes ever ask for a view, and neither the table nor any
    of those views builds an array."""
    monkeypatch.setattr(workloads_base, "_DATALESS_MEMO", {})
    spec = ExperimentSpec("coll_perf", 8, 8 * MiB, "enabled", num_files=2, scale=0.001)
    with spawned() as counts:
        run_experiment(spec)
    assert counts == [9]
    table = build_workload(spec, 512).steps[0].table()  # the recipe the run shared
    arrays = {"offsets", "lengths", "prefix", "ends", "rank_ptr"}
    assert table.levels is not None and not arrays & set(vars(table))
    views = [view for view in table._views if view is not None]
    assert [view.rank for view in views] == [0, 1, *range(64, 512, 64)]  # one a process
    assert not any(arrays & set(vars(view)) for view in views)


GATES = {
    "flow_fidelity": {"exchange": "flow"},
    "chunked_plane": {"faults": quiet_faults(small_testbed())},
    "heapq_engine": {"kind": "reference"},
    "fault_machine_with_an_empty_schedule": {"faults": FaultSchedule((), sync_rpc_timeout=30.0)},
    "cb_write_automatic": {"info": hints(cb_nodes=2, romio_cb_write="automatic")},
    "mpiwrap_wrapper": {"wrap": "[/g/*]\ndefer_close = true\n"},
    "fewer_than_two_followers": {"nodes": 3, "ppn": 1, "info": hints(cb_nodes=2)},
}


@pytest.mark.parametrize("name", sorted(GATES))
def test_gate_keeps_every_rank_a_process(name):
    kwargs = dict(GATES[name])
    nprocs = kwargs.get("nodes", 4) * kwargs.get("ppn", 2)
    kind = kwargs.pop("kind", "production")
    info = kwargs.pop("info", hints(cb_nodes=2))
    _, classes = run_program(kind, workload_of([strided(nprocs)], nprocs), info, **kwargs)
    assert classes == [(r,) for r in range(nprocs)]


# ---------------------------------------------------------------------------
# A class may only follow, and says so by name
# ---------------------------------------------------------------------------

FOLLOWERS = [(0,), (1, 3, 5, 6, 7), (2,), (4,)]  # aggregators of cb_nodes=2: 0 and 4


def production_cluster(nodes=4, ppn=2):
    machine = Machine(small_testbed(nodes, ppn))
    world = MPIWorld(machine)
    return machine, world, MPIIOLayer(machine, world.comm, exchange_mode="model")


def test_forced_classes_follow_like_declared_ones():
    """The partition the tests below force, on a program that only follows."""
    workload = workload_of([strided(8)], 8)
    forced, classes = run_program("production", workload, hints(cb_nodes=2), classes=FOLLOWERS)
    alone, _ = run_program("reference", workload, hints(cb_nodes=2))
    assert classes is FOLLOWERS and forced == alone


REFUSED = {
    "flow_allgather": (
        {"exchange": "flow"},
        {},
        r"rank 1 stands for 4 more ranks, which may only follow: "
        r"the flow-fidelity allgather of offsets is per rank",
    ),
    "data_sieving": (
        {},
        {"romio_cb_write": "disable"},
        r"rank 1 .*: data sieving \(romio_cb_write=disable\) is per rank",
    ),
    "aggregator_role": (
        {"classes": [(0, 1, 2, 3), (4,), (5,), (6,), (7,)]},
        {},
        r"rank 0 stands for 3 more ranks, .*: an aggregator's part in write_all is per rank",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_a_class_is_refused_a_per_rank_path(name):
    kwargs, extra, message = REFUSED[name]
    kwargs = {"classes": FOLLOWERS, **kwargs}
    with pytest.raises(SimError, match=message):
        run_program("production", workload_of([strided(8)], 8), hints(cb_nodes=2, **extra), **kwargs)


def test_a_class_is_refused_an_access_that_is_not_a_table_view():
    machine, world, layer = production_cluster()
    table = table_of(strided(8))

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/f", hints(cb_nodes=2))
        view = table.rank(ctx.rank)
        acc = RankAccess(view.offsets, view.lengths) if ctx.rank == 1 else view
        yield from fh.write_all(acc)
        yield from fh.close()

    body.rank_classes = lambda: FOLLOWERS
    with pytest.raises(SimError, match="rank 1 .*: a write_all access that is not a table view"):
        world.run(body)


@pytest.mark.parametrize(
    "operation",
    [
        lambda fh, acc: fh.write_at(0, 16),
        lambda fh, acc: fh.write_strided(acc),
        lambda fh, acc: fh.read_all(acc),
        lambda fh, acc: fh.read_strided(acc),
        lambda fh, acc: fh.read_at(0, 16),
    ],
    ids=["write_at", "write_strided", "read_all", "read_strided", "read_at"],
)
def test_a_class_is_refused_independent_io(operation, request):
    machine, world, layer = production_cluster()
    table = table_of(strided(8))

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/f", hints(cb_nodes=2))
        if ctx.rank == 1:
            yield from operation(fh, table.rank(1))
        yield from fh.close()

    body.rank_classes = lambda: FOLLOWERS
    name = request.node.callspec.id
    with pytest.raises(SimError, match=f"rank 1 .*: {name} is per rank"):
        world.run(body)


def test_a_class_is_refused_recovery_replay():
    machine, world, layer = production_cluster()
    machine.recovery.has_orphans = lambda path: True  # a crashed job's journals

    def body(ctx):
        yield from layer.open(ctx.rank, "/g/f", hints(cb_nodes=2))

    body.rank_classes = lambda: FOLLOWERS
    with pytest.raises(SimError, match="rank 1 .*: recovery.replay is per rank"):
        world.run(body)


def test_a_class_is_refused_per_rank_release():
    """The reference stack releases every rank through an event of its own."""
    world = MPIWorld(Machine(small_testbed(), reference=True))
    with pytest.raises(SimError, match=r"per-rank \(non-shared\) release is per rank"):
        world.comm.set_classes(FOLLOWERS)
    world.comm.set_classes([(r,) for r in range(8)])  # every rank on its own: fine


def test_a_second_program_with_another_partition_starts_level():
    """Members' slot indices do not advance with their representative's;
    the next spawn brings them level before it regroups the ranks."""
    machine, world, layer = production_cluster()
    workload = workload_of([strided(8)], 8)
    first = multi_phase_body(layer, workload, hints(cb_nodes=2), num_files=2, file_prefix="/g/a")
    world.run(first)
    assert len(world.classes) == 3
    model = world.comm._model
    assert model._slot_index[1] > model._slot_index[2] == 0  # rank 2 followed rank 1

    def second(ctx):  # every rank on its own, through the same files again
        fh = yield from layer.open(ctx.rank, "/g/a0", hints(cb_nodes=2))
        yield from fh.write_all(workload.steps[0].access_fn(ctx.rank))
        yield from fh.close()
        return ctx.now

    ends = world.run(second)
    assert len(world.classes) == 8 and len(set(ends)) == 1
    assert len(set(model._slot_index)) == 1
    assert len(layer._open_slots["/g/a0"]) == 2  # a new open generation for all
    third = multi_phase_body(layer, workload, hints(cb_nodes=4), num_files=1, file_prefix="/g/b")
    world.run(third)
    assert len(world.classes) == 5


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------


@st.composite
def programs(draw):
    nodes = draw(st.integers(2, 5))
    ppn = draw(st.integers(1, 4))
    nprocs = nodes * ppn
    block = draw(st.sampled_from([512, 3 * KiB, 8 * KiB]))
    steps, base = [], 0
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)) == 0:
            steps.append(IOStep.rank0(base, draw(st.integers(1, 4 * KiB))))
            base += 4 * KiB
            continue
        reps = draw(st.integers(0, 3))
        keep = draw(st.lists(st.booleans(), min_size=nprocs, max_size=nprocs))
        extents = [
            e if k else [] for k, e in zip(keep, strided(nprocs, base=base, block=block, reps=reps))
        ]
        steps.append(IOStep.collective(lambda extents=extents: table_of(extents)))
        base += reps * nprocs * block
    return {
        "nodes": nodes,
        "ppn": ppn,
        "workload": Workload("random", nprocs, tuple(steps), 0, 0),
        "info": hints(
            cb_nodes=draw(st.integers(1, nodes)),
            cb_buffer_size=draw(st.sampled_from(["2k", "16k", "1m"])),
            cb_config_spread=draw(st.sampled_from(["enable", "disable"])),
        ),
        "files": draw(st.integers(1, 3)),
        "cache": draw(st.booleans()),
    }


@settings(max_examples=30, deadline=None)
@given(program=programs())
def test_random_programs(program):
    nprocs = program["nodes"] * program["ppn"]
    info = {**program["info"], **(CACHE_HINTS if program["cache"] else {})}
    kwargs = dict(
        nodes=program["nodes"],
        ppn=program["ppn"],
        num_files=program["files"],
        deferred_close=program["cache"],
    )
    classed, classes = run_program("production", program["workload"], info, **kwargs)
    alone, _ = run_program("reference", program["workload"], info, **kwargs)
    assert classed == alone
    assert sorted(r for ranks in classes for r in ranks) == list(range(nprocs))
    assert [ranks[0] for ranks in classes] == sorted(ranks[0] for ranks in classes)
    # rank 0 and the aggregators on their own, one class for the rest if
    # they are two or more
    (class_of_many,) = [ranks for ranks in classes if len(ranks) > 1] or [()]
    _, _, layer = production_cluster(program["nodes"], program["ppn"])
    leaders = {0, *layer.aggregators(Hints.from_info(info))}
    followers = tuple(r for r in range(nprocs) if r not in leaders)
    assert class_of_many == (followers if len(followers) > 1 else ())


def test_the_partition_is_in_rank_order_whatever_the_hash_seed():
    """Built from ranges and membership tests only: no set is iterated."""
    _, _, layer = production_cluster(8, 4)
    body = multi_phase_body(layer, workload_of([strided(32)], 32), hints(cb_nodes=4))
    followers = tuple(r for r in range(32) if r % 8)
    assert body.rank_classes() == [(0,), followers, (8,), (16,), (24,)]
