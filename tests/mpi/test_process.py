import pytest

from repro.config import small_testbed
from repro.machine import Machine
from repro.mpi.process import MPIWorld


class TestMPIWorld:
    def test_rank_node_layout(self):
        world = MPIWorld(Machine(small_testbed(4, 2)))
        assert [world.comm.node_of(r) for r in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_contexts(self):
        machine = Machine(small_testbed(4, 2))
        world = MPIWorld(machine)

        def body(ctx):
            yield ctx.sim.timeout(0.0)
            return ctx

        ctxs = world.run(body)
        assert [c.rank for c in ctxs] == list(range(8))
        assert [c.ranks for c in ctxs] == [(r,) for r in range(8)]
        assert ctxs[5].node is machine.nodes[2]
        assert ctxs[0].nprocs == 8

    def test_one_process_per_declared_class(self):
        machine = Machine(small_testbed(4, 2))  # production: shared releases
        world = MPIWorld(machine)

        def body(ctx):
            yield from ctx.compute(1.0)
            return ctx

        body.rank_classes = lambda: [(0,), (1, 3, 5, 7), (2,), (4,), (6,)]
        procs = world.spawn(body)
        assert [p.name for p in procs] == ["rank0", "rank1+3", "rank2", "rank4", "rank6"]
        assert world.comm.members == [(), (3, 5, 7), (), (), (), (), (), ()]
        ctxs = world.per_rank(machine.sim.run(until=machine.sim.all_of(procs)))
        assert [c.rank for c in ctxs] == [0, 1, 2, 1, 4, 1, 6, 1]
        assert ctxs[3] is ctxs[1] and ctxs[1].ranks == (1, 3, 5, 7)
        # one compute timeout for the class: 5 x (init + timeout + completion),
        # and the all_of
        assert machine.sim.events_fired == 5 * 3 + 1

    def test_run_returns_in_rank_order(self):
        world = MPIWorld(Machine(small_testbed(2, 2)))

        def body(ctx):
            # later ranks finish earlier — results must still be rank-ordered
            yield from ctx.compute(1.0 / (ctx.rank + 1))
            return ctx.rank * 10

        assert world.run(body) == [0, 10, 20, 30]

    def test_compute_advances_clock(self):
        machine = Machine(small_testbed(2, 1))
        world = MPIWorld(machine)

        def body(ctx):
            yield from ctx.compute(2.0)
            return ctx.now

        assert world.run(body) == [2.0, 2.0]

    def test_crash_in_one_rank_propagates(self):
        world = MPIWorld(Machine(small_testbed(2, 1)))

        def body(ctx):
            yield ctx.sim.timeout(0.1)
            if ctx.rank == 1:
                raise RuntimeError("rank 1 died")
            yield ctx.sim.timeout(10.0)

        with pytest.raises(RuntimeError, match="rank 1 died"):
            world.run(body)
