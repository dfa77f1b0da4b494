"""A data server refuses a write RPC of a negative, infinite or NaN size,
naming ``nbytes``, or a batch of fewer than one RPC, naming ``rpc_count``,
before it takes a worker or counts anything — on both stacks: production's
callback chain and the reference stack's generator refuse the same input
with the same message; no sync plan charges a run fewer than one RPC."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.config import PFSConfig
from repro.pfs.layout import StripeLayout, sync_plan
from repro.pfs.server import DataServer
from repro.sim.core import SimError, Simulator
from repro.sim.rng import RngStreams

KiB = 1024


def serve(stack):
    """``(server, write)``: a fresh server on ``stack``'s engine, and a
    write RPC issued to it as ``write(nbytes, on_done, **kw)``; what the
    RPC raises, the call raises or the engine's run does."""
    if stack == "production":
        srv = DataServer(Simulator(), 0, 0, PFSConfig(), rng=RngStreams(2016))

        def write(nbytes, on_done, **kw):
            srv.serve_write(0, nbytes, on_done, **kw)

    else:
        sim = reference.HeapSimulator()
        srv = DataServer(sim, 0, 0, PFSConfig(), rng=RngStreams(2016))

        def write(nbytes, on_done, **kw):
            def rpc():
                yield from reference.serve_write(srv, 0, nbytes, **kw)
                on_done()

            sim.process(rpc())

    return srv, write


def untouched(srv):
    return (
        srv.workers.in_use,
        srv.workers.queue_len,
        srv.rpcs_served,
        srv.cache.dirty,
        srv.rpcs_by_tag,
    ) == (0, 0, 0, 0, {})


def refuses_a_bad_size(stack, nbytes):
    srv, write = serve(stack)
    acked = []
    message = f"serve_write: nbytes must be finite and >= 0, got {nbytes!r}"
    with pytest.raises(SimError) as refused:
        write(nbytes, lambda: acked.append(1), tag="job")
        srv.sim.run()
    assert str(refused.value) == message
    srv.sim.run()
    assert untouched(srv) and not acked


def refuses_a_count_below_one(stack, rpc_count):
    srv, write = serve(stack)
    acked = []
    with pytest.raises(SimError) as refused:
        write(64 * KiB, lambda: acked.append(1), rpc_count=rpc_count, tag="job")
        srv.sim.run()
    assert str(refused.value) == f"serve_write: rpc_count must be >= 1, got {rpc_count!r}"
    srv.sim.run()
    assert untouched(srv) and not acked


def acks_a_good_rpc_once_and_counts_it(stack):
    srv, write = serve(stack)
    acked = []
    write(64 * KiB, lambda: acked.append(srv.sim.now), rpc_count=3, tag="job")
    write(0, lambda: acked.append(srv.sim.now))
    srv.sim.run()
    assert len(acked) == 2 and srv.rpcs_served == 4
    assert srv.rpcs_by_tag == {"job": 3} and srv.bytes_by_tag == {"job": 64 * KiB}
    assert (srv.workers.in_use, srv.workers.queue_len) == (0, 0)


BAD_SIZES = [-(1 << 20), -1, math.nan, math.inf]
BAD_COUNTS = [0, -3, math.nan]


@pytest.mark.parametrize("nbytes", BAD_SIZES)
def test_a_bad_size_is_refused(nbytes):
    refuses_a_bad_size("production", nbytes)


@pytest.mark.parametrize("nbytes", BAD_SIZES)
def test_the_reference_stack_refuses_a_bad_size(nbytes):
    refuses_a_bad_size("reference", nbytes)


@pytest.mark.parametrize("rpc_count", BAD_COUNTS)
def test_a_count_below_one_is_refused(rpc_count):
    refuses_a_count_below_one("production", rpc_count)


@pytest.mark.parametrize("rpc_count", BAD_COUNTS)
def test_the_reference_stack_refuses_a_count_below_one(rpc_count):
    refuses_a_count_below_one("reference", rpc_count)


def test_a_good_rpc_is_acked_once_and_counted():
    acks_a_good_rpc_once_and_counts_it("production")


def test_the_reference_stack_acks_a_good_rpc_once_and_counts_it():
    acks_a_good_rpc_once_and_counts_it("reference")


@settings(max_examples=200, deadline=None)
@given(
    stripe_size=st.sampled_from([4 * KiB, 64 * KiB, 1 << 20]),
    stripe_count=st.integers(1, 8),
    offset=st.integers(0, 1 << 24),
    nbytes=st.integers(1, 1 << 23),
    rpc_count=st.one_of(st.none(), st.integers(0, 64)),
)
def test_every_sync_run_charges_at_least_one_rpc(
    stripe_size, stripe_count, offset, nbytes, rpc_count
):
    layout = StripeLayout(stripe_size, stripe_count)
    _shift, plan = sync_plan(layout, offset, nbytes, 4, rpc_count)
    assert plan and all(run_rpcs >= 1 for _si, _t_off, _total, run_rpcs in plan)
    assert sum(run[3] for run in plan) == max(rpc_count or 0, len(plan))
