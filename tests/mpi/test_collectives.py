import dataclasses
import math

import pytest

from repro.config import small_testbed
from repro.machine import Machine
from repro.mpi.collectives import CollectiveCosts, ModelCollectives, op_max, op_min
from repro.mpi.process import MPIWorld
from repro.reference import HeapSimulator
from repro.romio.profiling import Profiler
from repro.sim.core import SimError, create_simulator


def run_model(body_factory, num_nodes=4, procs_per_node=2):
    """Run an SPMD body on the communicator's model collectives."""
    return MPIWorld(Machine(small_testbed(num_nodes, procs_per_node))).run(body_factory())


class TestEquivalence:
    """The model engine returns what MPI defines each collective to return,
    written out as literals."""

    def test_allreduce_sum(self):
        def factory():
            def body(ctx):
                total = yield from ctx.comm.allreduce(ctx.rank, ctx.rank + 1)
                return total

            return body

        assert run_model(factory) == [36] * 8

    def test_allreduce_max_min(self):
        def factory():
            def body(ctx):
                hi = yield from ctx.comm.allreduce(ctx.rank, ctx.rank, op_max)
                lo = yield from ctx.comm.allreduce(ctx.rank, ctx.rank, op_min)
                return (hi, lo)

            return body

        assert run_model(factory) == [(7, 0)] * 8

    def test_alltoall(self):
        def factory():
            def body(ctx):
                vals = yield from ctx.comm.alltoall(
                    ctx.rank, [ctx.rank * 100 + d for d in range(ctx.nprocs)]
                )
                return vals

            return body

        model = run_model(factory)
        for r, row in enumerate(model):
            assert row == [s * 100 + r for s in range(8)]

    def test_bcast_nonzero_root(self):
        def factory():
            def body(ctx):
                v = yield from ctx.comm.bcast(
                    ctx.rank, f"from{ctx.rank}" if ctx.rank == 5 else None, root=5
                )
                return v

            return body

        assert run_model(factory) == ["from5"] * 8

    def test_non_power_of_two_allreduce(self):
        def factory():
            def body(ctx):
                total = yield from ctx.comm.allreduce(ctx.rank, ctx.rank)
                return total

            return body

        assert run_model(factory, 3, 2) == [15] * 6  # 6 ranks


class TestSynchronisation:
    def test_barrier_waits_for_slowest(self):
        machine = Machine(small_testbed())
        world = MPIWorld(machine)

        def body(ctx):
            yield from ctx.compute(ctx.rank * 0.1)
            yield from ctx.comm.barrier(ctx.rank)
            return ctx.now

        times = world.run(body)
        slowest_arrival = 0.7
        assert all(t >= slowest_arrival for t in times)
        assert max(times) - min(times) < 1e-9  # all released together

    def test_timed_collective_duration(self):
        machine = Machine(small_testbed())
        world = MPIWorld(machine)

        def body(ctx):
            t0 = ctx.now
            yield ctx.comm.timed(ctx.rank, 0.25, "phase")
            return ctx.now - t0

        durations = world.run(body)
        assert max(durations) == pytest.approx(0.25, abs=1e-6)

    def test_collective_mismatch_detected(self):
        machine = Machine(small_testbed(2, 1))
        world = MPIWorld(machine)

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.barrier(ctx.rank)
            else:
                yield from ctx.comm.allreduce(ctx.rank, 1)

        with pytest.raises(SimError, match="collective mismatch"):
            world.run(body)

    def test_successive_collectives_keep_order(self):
        machine = Machine(small_testbed())
        world = MPIWorld(machine)

        def body(ctx):
            a = yield from ctx.comm.allreduce(ctx.rank, 1)
            b = yield from ctx.comm.allreduce(ctx.rank, 2)
            c = yield from ctx.comm.allreduce(ctx.rank, 3)
            return (a, b, c)

        res = world.run(body)
        assert res == [(8, 16, 24)] * 8


class TestCostModel:
    def test_alltoall_cost_grows_with_size(self):
        machine = Machine(small_testbed())
        world = MPIWorld(machine)
        costs = world.comm.costs
        assert costs.alltoall(8, 1024) > costs.alltoall(8, 16)

    def test_small_collective_log_scaling(self):
        machine = Machine(small_testbed())
        costs = MPIWorld(machine).comm.costs
        assert costs.small_collective(512) > costs.small_collective(8)

    def test_memoised_closed_forms_equal_the_formulas(self):
        costs = CollectiveCosts(
            alpha=3e-6, beta_inv=1.7e-10, per_message=4e-7, procs_per_node=8
        )
        for nprocs in (1, 2, 6, 512):
            stages = max(1, math.ceil(math.log2(max(2, nprocs))))
            assert costs.stages(nprocs) == stages
            for nbytes in (4, 16):
                expected = 2 * (3e-6 * stages) + nbytes * 1.7e-10 * stages
                assert costs.small_collective(nprocs, nbytes) == expected
                assert costs.small_collective(nprocs, nbytes) == expected  # memo
            fan = max(1, nprocs - 1)
            expected = 3e-6 * stages + fan * 4e-7 + (16 * fan * 8) * 1.7e-10
            assert costs.alltoall(nprocs, 16) == expected
            assert costs.alltoall(nprocs, 16) == expected

    def test_parameters_cannot_change_behind_the_memo(self):
        costs = CollectiveCosts(alpha=1e-6, beta_inv=1e-9, per_message=1e-7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            costs.alpha = 2e-6


# ---------------------------------------------------------------------------
# Timed slots, walked round by round (what the reference stack and
# ``romio_cb_write=automatic`` do; on production a collective write runs on
# its clock instead: tests/romio/test_call_clock.py)
# ---------------------------------------------------------------------------

NPROCS = 6
LIVE = (0, 1)
# Irregular durations and think times: their float sums depend on the order
# of addition, so any re-association in a lap's bookkeeping shows.
STEPS = [
    ("a2a", 0.1, "shuffle_all2all"),
    ("x", 0.7, "comm"),
    ("a2a", 0.1, "shuffle_all2all"),
    ("x", 0.2000000000000003, "comm"),
    ("a2a", 0.1, "shuffle_all2all"),
    ("x", 1e-7, "comm"),
]
THINK = {0: 0.3, 1: 1.1000000000000001}


def slot_model():
    sim = create_simulator()
    costs = CollectiveCosts(alpha=1e-6, beta_inv=1e-9, per_message=1e-7)
    return sim, ModelCollectives(sim, NPROCS, costs)


def walk(sim, model, rank, prof, think=0.0):
    """The two-phase round loop as the collectives see it, laps and all."""
    for label, duration, phase in STEPS:
        t0 = prof.mark()
        yield model.timed(rank, duration, label)
        prof.lap(phase, t0)
        if think and phase == "comm":
            yield sim.timeout(think)  # an aggregator's assembly + write
    t0 = prof.mark()
    yield model.arrive(rank, "allreduce", 0, reduce_op=op_max, nbytes=4)
    prof.lap("post_write", t0)
    return sim.now


class TestTimedLadder:
    """The slots the timed ladder used to pre-register ranks into (the
    ladder is gone; the name stays with what it leaves in this module)."""

    def test_timed_slots_release_no_results_dict(self):
        sim, model = slot_model()
        released = [model.timed(r, 0.25, "t") for r in range(NPROCS)]
        sim.run()
        assert {id(ev) for ev in released} == {id(released[0])}
        assert released[0].fired and released[0].value is None

    def test_a_timed_slot_keeps_its_longest_duration_as_ranks_arrive(self):
        """No arrival is filed: a count, and the running maximum — the same
        float the fold over all arrivals gave, the first of equals winning."""
        sim, model = slot_model()
        durations = [0.1, 0.30000000000000004, 0.3, 0.30000000000000004, 2, 0.2]
        for rank, duration in enumerate(durations[:-1]):
            model.timed(rank, duration, "t")
        slot = model._slots[0]
        assert (slot.count, slot.duration, slot.arrivals) == (5, 2, {})
        release = model.timed(5, durations[-1], "t")
        sim.run()
        assert release.fired and sim.now == max(float(d) for d in durations) == 2.0
        sim, model = slot_model()
        first, second = 0.5, float("0.5")  # equal, distinguishable by identity
        model.timed(0, first, "t")
        model.timed(1, second, "t")
        assert model._slots[0].duration is first

    @pytest.mark.parametrize(
        "op, value, extra, result",
        [
            ("barrier", None, {}, None),
            ("allreduce", 3, {"reduce_op": op_max, "nbytes": 4}, 3),
            ("bcast", "v", {"root": 0, "nbytes": 64}, "v"),
        ],
    )
    def test_one_result_for_all_rides_on_the_release(self, op, value, extra, result):
        """Where every rank gets the same object no ``{rank: value}`` dict
        is built: the shared release carries it and ``enter`` returns it."""
        sim, model = slot_model()
        got = []

        def body(rank):
            mine = value if op != "bcast" or rank == 0 else None
            got.append((yield from model.enter(rank, op, mine, **extra)))

        for rank in range(NPROCS):
            sim.process(body(rank))
        sim.run()
        assert got == [result] * NPROCS

    def test_per_rank_results_are_still_picked_by_rank(self):
        sim, model = slot_model()
        got = {}

        def body(rank):
            got[rank] = yield from model.alltoall(rank, [10 * rank + d for d in range(NPROCS)])

        for rank in range(NPROCS):
            sim.process(body(rank))
        sim.run()
        assert all(got[r] == [r, 10 + r, 20 + r, 30 + r, 40 + r, 50 + r] for r in range(NPROCS))
        assert len({id(v) for v in got.values()}) == NPROCS  # each its own list


# ---------------------------------------------------------------------------
# Rank classes: one rank arrives for all the ranks that only follow it
# ---------------------------------------------------------------------------

CLASSES = [(0,), (1,), (2, 3, 4, 5)]  # ranks 0 and 1 lead, the rest follow
SINGLES = [(r,) for r in range(NPROCS)]


def program(sim, model, rank, prof, out):
    """Every entry point a follower arrives through, one after another;
    ``out`` gets the release instant of each and what it released with."""
    follows = rank not in LIVE
    ev = model.arrive(rank, "barrier")
    yield ev
    out.append((sim.now, ev.value))
    ev = model.arrive(rank, "bcast", "v" if rank == 0 else None, root=0, nbytes=64)
    yield ev
    out.append((sim.now, ev.value))
    total = yield from model.allreduce(rank, 1 if follows else 10 * (rank + 1))
    out.append((sim.now, total))
    gathered = yield from model.alltoall(rank, [7 if follows else rank] * NPROCS)
    out.append((sim.now, gathered))
    yield from model.enter(rank, "timed:gen", 0.125)
    out.append(sim.now)
    yield model.timed(rank, 0.25, "flat")
    out.append(sim.now)
    yield from walk(sim, model, rank, prof, THINK.get(rank, 0.0))
    out.append(sim.now)


def run_program(classes):
    sim, model = slot_model()
    model.set_classes(classes)
    outs = {ranks: [] for ranks in classes}
    profs = {ranks: Profiler(sim, ranks[0]) for ranks in classes}
    for ranks in classes:
        sim.process(program(sim, model, ranks[0], profs[ranks], outs[ranks]))
    sim.run()
    assert not model._slots
    per_rank = {r: (outs[ranks], profs[ranks].profile.seconds) for ranks in classes for r in ranks}
    return per_rank, sim.now, sim.events_fired


class TestRankClasses:
    def test_a_class_arrives_for_every_member(self):
        """Barrier, bcast, allreduce, alltoall, timed (generator and flat),
        the round loop and the post-write allreduce: same release instants,
        same results — the alltoall's with an entry for every member — and
        same laps as when every rank arrives for itself."""
        alone, end, events = run_program(SINGLES)
        classed, class_end, class_events = run_program(CLASSES)
        assert classed == alone and class_end == end
        assert alone[2][0][2][1] == 10 + 20 + 4
        assert alone[2][0][3][1] == [0, 1, 7, 7, 7, 7]
        assert events - class_events == 3 * 2  # three processes' init and completion

    def test_a_slot_waits_for_the_weight_of_all_ranks(self):
        sim, model = slot_model()
        model.set_classes(CLASSES)
        release = model.arrive(2, "barrier")
        model.arrive(0, "barrier")
        assert len(model._slots[0].arrivals) == 5 and not release.triggered
        model.arrive(1, "barrier")
        assert release.triggered and not model._slots

    def test_mismatch_names_the_representative(self):
        sim, model = slot_model()
        model.set_classes(CLASSES)
        model.arrive(0, "barrier")
        with pytest.raises(SimError, match=r"slot 0: rank 2 called 'allreduce' .* 'barrier'"):
            model.arrive(2, "allreduce", 0, reduce_op=op_max, nbytes=4)

    @pytest.mark.parametrize(
        "classes, message",
        [
            ([(0,), (1,), (2, 3, 4)], "rank classes: rank 5 is in no class"),
            ([(0, 1), (1, 2), (3, 4, 5)], "rank classes: rank 1 is in two classes"),
            ([(0,), (1,), (2, 3, 4, 5, 6)], "rank classes: rank 6 is in two classes, or no rank"),
        ],
        ids=["no_class", "two_classes", "no_rank"],
    )
    def test_only_a_partition_of_the_ranks_is_accepted(self, classes, message):
        _, model = slot_model()
        with pytest.raises(SimError, match=message):
            model.set_classes(classes)
        assert model.members == [()] * NPROCS  # untouched

    def test_nobody_joins_a_class_from_another_slot(self):
        sim, model = slot_model()
        for rank in range(NPROCS):
            if rank != 4:
                model.arrive(rank, "barrier")
        with pytest.raises(SimError, match="cannot change with slot 0 in flight"):
            model.set_classes(CLASSES)
        model._slots.clear()  # as if rank 4 had left the communicator for good
        with pytest.raises(
            SimError, match="rank 4 is at slot 0, its representative rank 2 at slot 1"
        ):
            model.set_classes(CLASSES)

    def test_former_members_are_brought_level_first(self):
        sim, model = slot_model()
        model.set_classes(CLASSES)
        for rank in (0, 1, 2):
            model.arrive(rank, "barrier")
        sim.run()
        assert model._slot_index == [1, 1, 1, 0, 0, 0]
        model.set_classes([(0, 3), (1, 4), (2, 5)])
        assert model._slot_index == [1] * NPROCS
        assert model.members == [(3,), (4,), (5,), (), (), ()]

    def test_classes_are_refused_on_the_heapq_engine(self):
        """The heapq engine releases every rank on its own event, so no
        rank can arrive for others there: the refusal names the engine."""
        costs = CollectiveCosts(alpha=1e-6, beta_inv=1e-9, per_message=1e-7)
        model = ModelCollectives(HeapSimulator(), NPROCS, costs)
        assert not model.shared_release
        with pytest.raises(
            SimError, match="rank classes: the heapq engine releases every rank on its own event"
        ):
            model.set_classes(CLASSES)
        model.set_classes(SINGLES)

    def test_alone_names_rank_and_path(self):
        _, model = slot_model()
        model.set_classes(CLASSES)
        model.alone(1, "anything")
        with pytest.raises(
            SimError, match="rank 2 stands for 3 more ranks, which may only follow: x is per rank"
        ):
            model.alone(2, "x")
