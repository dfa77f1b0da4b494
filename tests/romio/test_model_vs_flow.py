"""The model exchange's plan against per-slice computation.

The exchange precomputes each round's send and piece matrices for all
ranks at once (``AccessTable.window_sums``); they must equal what each
rank's own ``slice_window`` of each domain's round window holds — the
slices a per-message shuffle would send — whichever way the call came by
its table.  Also: the table is gathered once per call, and a memo hit
translated to another file offset still writes its own bytes.
"""

import numpy as np
import pytest

from repro.access import AccessTable, RankAccess
from repro.units import KiB
from tests.conftest import make_cluster


def strided_adhoc(nprocs, block=4 * KiB, reps=4):
    """Every rank builds its own access: the call packs them into a table."""
    out = []
    for r in range(nprocs):
        offs = np.array([r * block + k * nprocs * block for k in range(reps)])
        out.append(RankAccess(offs, np.full(reps, block)))
    return out


def strided_table(nprocs, block=4 * KiB, reps=4):
    """Every rank passes its view of one table: the call reuses it as is."""
    starts = np.arange(nprocs)[:, None] * block
    offs = starts + np.arange(reps)[None, :] * nprocs * block
    table = AccessTable(
        offs.ravel(), np.full(nprocs * reps, block), np.arange(nprocs + 1) * reps
    )
    return [table.rank(r) for r in range(nprocs)]


def run(hints, patterns, profiler=None):
    """Write ``patterns`` in one collective call; returns the file's descriptor."""
    machine, world, layer = make_cluster()
    machine.sim.profiler = profiler

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/t", hints)
        yield from fh.write_all(patterns[ctx.rank])
        yield from fh.close()

    world.run(body)
    return layer._open_slots["/g/t"][0]


HINTS = {"cb_nodes": "2", "cb_buffer_size": "16k", "romio_cb_write": "enable"}


class TestEquivalence:
    strided = staticmethod(strided_adhoc)

    def test_model_sends_match_flow_slices(self):
        """The batched per-round send and piece matrices equal per-slice
        computation, whichever way the call came by its table."""
        patterns = self.strided(8)
        call = run(HINTS, patterns)._calls[0]
        assert (call.table is patterns[0].table) == (self.strided is strided_table)
        cb = 16 * KiB
        bounds = np.array(
            [
                [min(d.start + k * cb, d.end) for k in range(call.ntimes + 1)]
                for d in call.domains
            ]
        )
        sends, pieces = call.table.window_sums(bounds)
        for r in range(call.ntimes):
            for rank in range(8):
                offsets = patterns[rank].offsets
                for i, d in enumerate(call.domains):
                    if d.size <= 0:
                        continue
                    lo = d.start + r * cb
                    hi = min(d.end, lo + cb)
                    ws = patterns[rank].slice_window(lo, hi)
                    assert sends[rank, i, r] == ws.nbytes, (rank, i, r)
                    starting = int(np.count_nonzero((offsets >= lo) & (offsets < hi)))
                    assert pieces[rank, i, r] == starting == ws.count, (rank, i, r)
            received = pieces[:, :, r].sum(axis=0)
            assert call.recv_pieces[:, r].tolist() == received.tolist()
            assert call.recv_bytes[:, r].tolist() == sends[:, :, r].sum(axis=0).tolist()


class TestEquivalenceSharedTable(TestEquivalence):
    """The same checks when every rank passes a view of one table."""

    strided = staticmethod(strided_table)


@pytest.mark.parametrize(
    "build, counter",
    [
        (strided_table, "access.table_reuse"),
        (strided_adhoc, "access.table_gather_adhoc"),
    ],
)
def test_gather_path_is_counted_once_per_call(build, counter):
    from repro.sim.profile import SimProfiler

    prof = SimProfiler()
    run(HINTS, build(8), profiler=prof)
    counts = {k: v for k, v in prof.counters.items() if k.startswith("access.")}
    assert counts == {counter: 1}


def test_translated_memo_hit_writes_every_byte():
    """Two calls whose patterns differ only by a file offset share one model
    memo entry; the second must still write its own byte range (the entry
    used to restore coverage *ends* untranslated, dropping the write)."""
    machine, world, layer = make_cluster()
    block = 16 * KiB
    # Segments are a whole number of stripes, so their stripe-aligned file
    # domains are translates of each other too and the memo key matches.
    hints = dict(HINTS, striping_unit="16k")

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/t", hints)
        for segment in range(3):
            offset = segment * 8 * block + ctx.rank * block
            yield from fh.write_all(RankAccess.contiguous(offset, block))
        yield from fh.close()

    world.run(body)
    persisted = machine.pfs.lookup("/g/t").persisted
    assert list(persisted) == [(0, 3 * 8 * block)]
