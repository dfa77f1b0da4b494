"""Generalized requests (``MPI_Grequest_start``/``MPI_Grequest_complete``),
the requests the E10 cache's sync thread completes.  The simulated MPI has
no point-to-point: these are its only nonblocking requests."""

import pytest

from repro.config import small_testbed
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.mpi.request import GeneralizedRequest


@pytest.fixture
def world():
    return MPIWorld(Machine(small_testbed()))


class TestGeneralizedRequests:
    def test_external_completion(self, world):
        def body(ctx):
            if ctx.rank != 0:
                yield ctx.sim.timeout(0)
                return None
            greq = GeneralizedRequest(ctx.sim)

            def completer():
                yield ctx.sim.timeout(2.0)
                greq.complete("persisted")

            ctx.sim.process(completer())
            value = yield from greq.wait()
            return (value, ctx.now)

        res = world.run(body)
        assert res[0] == ("persisted", 2.0)

    def test_wait_after_complete_returns_immediately(self, world):
        def body(ctx):
            yield ctx.sim.timeout(0)
            greq = GeneralizedRequest(ctx.sim)
            greq.complete(41)
            v = yield from greq.wait()
            return v

        assert world.run(body) == [41] * 8

    def test_failed_grequest_raises(self, world):
        def body(ctx):
            yield ctx.sim.timeout(0)
            if ctx.rank != 0:
                return "ok"
            greq = GeneralizedRequest(ctx.sim)
            greq.fail(OSError("flush failed"))
            with pytest.raises(OSError):
                yield from greq.wait()
            return "caught"

        assert world.run(body)[0] == "caught"

    def test_complete_now_flag(self, world):
        def body(ctx):
            yield ctx.sim.timeout(0)
            greq = GeneralizedRequest(ctx.sim)
            before = greq.complete_now
            greq.complete()
            yield ctx.sim.timeout(0)
            return (before, greq.complete_now)

        assert world.run(body)[0] == (False, True)
