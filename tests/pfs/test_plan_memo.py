"""The stripe-plan memo (``repro.pfs.layout``) against a cold reference.

The memo keys a plan on the stripe geometry and the offset *within one
stripe row* and translates target offsets by ``row * stripe_size``.  The
reference below derives the same plan the way ``PFSClient`` used to on every
call — ``chunks → coalesce_target_runs → group → split`` at the real offset
— and must agree for every geometry.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.config import small_testbed
from repro.machine import Machine
from repro.pfs import layout as layout_mod
from repro.pfs.layout import (
    StripeLayout,
    coalesce_target_runs,
    pipelined_plan,
    plan_memo_info,
    sync_plan,
)
from repro.sim.core import SimError
from tests.conftest import sync_write


def cold_runs(layout, offset, nbytes, nservers):
    """(server, target offset, bytes) per target run, at the real offset."""
    runs = coalesce_target_runs(list(layout.chunks(offset, nbytes)))
    return [
        (run[0].target % nservers, run[0].target_offset, sum(ch.length for ch in run))
        for run in runs
    ]


def cold_groups(layout, offset, nbytes, nservers, bulk):
    """The old ``_group_runs``: by (server, byte total), run order kept."""
    runs = cold_runs(layout, offset, nbytes, nservers)
    if not (bulk and len(runs) > 1):
        return [(server, total, [t_off]) for server, t_off, total in runs]
    groups, index = [], {}
    for server, t_off, total in runs:
        i = index.get((server, total))
        if i is None:
            index[(server, total)] = len(groups)
            groups.append((server, total, [t_off]))
        else:
            groups[i][2].append(t_off)
    return groups


def cold_split(layout, offset, nbytes, nservers, rpc_count):
    """The old inline RPC-split loop of ``write_sync``/``write_sync_flat``."""
    runs = cold_runs(layout, offset, nbytes, nservers)
    n_rpcs = max(rpc_count if rpc_count is not None else len(runs), len(runs))
    plan = []
    remaining_rpcs = n_rpcs
    for i, (server, t_off, total) in enumerate(runs):
        if i == len(runs) - 1:
            run_rpcs = remaining_rpcs
        else:
            run_rpcs = max(1, round(n_rpcs * total / nbytes))
            run_rpcs = min(run_rpcs, remaining_rpcs - (len(runs) - 1 - i))
        remaining_rpcs -= run_rpcs
        plan.append((server, t_off, total, run_rpcs))
    return plan


geometry = st.tuples(
    st.integers(1, 64),  # stripe_size
    st.integers(1, 6),  # stripe_count
    st.integers(0, 7),  # first_target
    st.integers(1, 6),  # nservers (may be < stripe_count)
)


@settings(max_examples=400, deadline=None)
@given(
    geometry,
    st.integers(0, 5000),
    st.integers(1, 1500),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 40)),
)
def test_memoised_plan_equals_cold_reference(geo, offset, nbytes, bulk, rpc_count):
    stripe_size, stripe_count, first_target, nservers = geo
    layout = StripeLayout(stripe_size, stripe_count, first_target)

    shift, nruns, groups = pipelined_plan(layout, offset, nbytes, nservers, bulk)
    want = cold_groups(layout, offset, nbytes, nservers, bulk)
    assert nruns == sum(len(offs) for _, _, offs in want)
    assert [(s, t, [o + shift for o in offs]) for s, t, offs in groups] == want

    shift, plan = sync_plan(layout, offset, nbytes, nservers, rpc_count)
    assert [(s, o + shift, t, n) for s, o, t, n in plan] == cold_split(
        layout, offset, nbytes, nservers, rpc_count
    )
    assert sum(n for *_, n in plan) == max(rpc_count or 0, len(plan))


@pytest.mark.parametrize(
    "offset, nbytes, why",
    [
        (0, 1600, "aligned, four full rows: several chunks merge into one run per target"),
        (37, 10, "shorter than a stripe"),
        (90, 30, "unaligned head crossing one stripe boundary"),
        (399, 2, "crosses a row boundary"),
        (4 * 400 + 250, 1234, "later row, unaligned head and tail"),
    ],
)
@pytest.mark.parametrize("first_target", [0, 3])
@pytest.mark.parametrize("nservers", [4, 3])
def test_named_shapes(offset, nbytes, why, first_target, nservers):
    layout = StripeLayout(100, 4, first_target)
    for bulk in (False, True):
        shift, _, groups = pipelined_plan(layout, offset, nbytes, nservers, bulk)
        got = [(s, t, [o + shift for o in offs]) for s, t, offs in groups]
        assert got == cold_groups(layout, offset, nbytes, nservers, bulk), why


def test_rows_of_one_shape_share_one_entry():
    layout = StripeLayout(64, 4)
    width = 64 * 4
    first = pipelined_plan(layout, 10, 500, 4, True)
    before = plan_memo_info()["pipelined"]
    plans = [pipelined_plan(layout, 10 + row * width, 500, 4, True) for row in range(1, 50)]
    after = plan_memo_info()["pipelined"]
    assert after.misses == before.misses and after.hits == before.hits + 49
    assert all(p[2] is first[2] for p in plans)  # the same tuple, only the shift differs
    assert [p[0] for p in plans] == [row * 64 for row in range(1, 50)]


def test_memo_is_keyed_on_ints_and_bounded():
    """Equal geometries hit whatever object carries them; the memo never
    holds a layout or a file; old shapes fall out at the bound."""
    a, b = StripeLayout(32, 3, 1), StripeLayout(32, 3, 1)
    assert a is not b
    assert pipelined_plan(a, 5, 300, 3, True)[2] is pipelined_plan(b, 5, 300, 3, True)[2]
    for memo in (layout_mod._pipelined_plan, layout_mod._sync_plan):
        assert memo.cache_info().maxsize == layout_mod._PLAN_MEMO_MAX
    for nbytes in range(1, layout_mod._PLAN_MEMO_MAX + 200):
        sync_plan(a, 0, nbytes, 3, None)
    info = plan_memo_info()["sync"]
    assert info.currsize == info.maxsize


@pytest.fixture
def machine():
    return Machine(small_testbed())


def _entry_points(machine):
    client = machine.pfs_client(0)

    def flat(f, offset, nbytes):
        yield sync_write(client, f, offset, nbytes)

    return {
        "write": client.write,
        "write_sync": partial(reference.write_sync, client),
        "write_sync_flat": flat,
        "read": client.read,
    }


@pytest.mark.parametrize("entry", ["write", "write_sync", "write_sync_flat", "read"])
@pytest.mark.parametrize(
    "offset, nbytes, message",
    [(-1, 10, "offset must be >= 0, got -1"), (0, -7, "nbytes must be >= 0, got -7")],
)
def test_every_entry_point_rejects_a_negative_extent(machine, entry, offset, nbytes, message):
    client = machine.pfs_client(0)

    def proc():
        f = yield from client.create("/g/a")
        yield from _entry_points(machine)[entry](f, offset, nbytes)

    with pytest.raises(SimError, match=message):
        machine.sim.run(until=machine.sim.process(proc()))
    assert machine.pfs.lookup("/g/a").size == 0


def test_zero_length_extents_keep_their_old_meaning(machine):
    client = machine.pfs_client(0)

    def proc():
        f = yield from client.create("/g/a")
        assert client.write(f, 0, 0) is None  # nothing to wait for
        yield from reference.write_sync(client, f, 0, 0)
        got = yield from client.read(f, 0, 0)
        assert got is None
        with pytest.raises(SimError, match="requires nbytes > 0"):
            sync_write(client, f, 0, 0)
        return f

    f = machine.sim.run(until=machine.sim.process(proc()))
    assert f.size == 0 and client.rpcs == 0
