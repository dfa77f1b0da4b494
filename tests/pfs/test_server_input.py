"""A data server refuses a write RPC of a negative, infinite or NaN size,
naming ``nbytes``, or a batch of fewer than one RPC, naming ``rpc_count``,
before it takes a worker or counts anything; no sync plan charges a run
fewer than one RPC."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PFSConfig
from repro.pfs.layout import StripeLayout, sync_plan
from repro.pfs.server import DataServer
from repro.sim.core import SimError, SlottedSimulator
from repro.sim.rng import RngStreams

KiB = 1024


def server():
    sim = SlottedSimulator()
    return DataServer(sim, 0, 0, PFSConfig(), rng=RngStreams(2016))


def untouched(srv):
    return (
        srv.workers.in_use,
        srv.workers.queue_len,
        srv.rpcs_served,
        srv.cache.dirty,
        srv.rpcs_by_tag,
    ) == (0, 0, 0, 0, {})


@pytest.mark.parametrize("nbytes", [-(1 << 20), -1, math.nan, math.inf])
def test_a_bad_size_is_refused(nbytes):
    srv = server()
    acked = []
    with pytest.raises(SimError, match="nbytes"):
        srv.serve_write(0, nbytes, lambda: acked.append(1), tag="job")
    srv.sim.run()
    assert untouched(srv) and not acked


@pytest.mark.parametrize("rpc_count", [0, -3, math.nan])
def test_a_count_below_one_is_refused(rpc_count):
    srv = server()
    acked = []
    with pytest.raises(SimError, match="rpc_count"):
        srv.serve_write(0, 64 * KiB, lambda: acked.append(1), rpc_count=rpc_count, tag="job")
    srv.sim.run()
    assert untouched(srv) and not acked


def test_a_good_rpc_is_acked_once_and_counted():
    srv = server()
    acked = []
    srv.serve_write(0, 64 * KiB, lambda: acked.append(srv.sim.now), rpc_count=3, tag="job")
    srv.serve_write(0, 0, lambda: acked.append(srv.sim.now))
    srv.sim.run()
    assert len(acked) == 2 and srv.rpcs_served == 4
    assert srv.rpcs_by_tag == {"job": 3} and srv.bytes_by_tag == {"job": 64 * KiB}
    assert (srv.workers.in_use, srv.workers.queue_len) == (0, 0)


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
