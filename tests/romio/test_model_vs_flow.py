"""Consistency between the two exchange fidelities.

The model engine replaces per-message simulation with precomputed costs; it
must still write exactly the same byte ranges, run the same number of
rounds, and agree with flow fidelity on wall-clock within a small factor.
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


def run(mode, hints, patterns, profiler=None):
    machine, world, layer = make_cluster(exchange=mode)
    machine.sim.profiler = profiler

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/t", hints)
        t0 = ctx.now
        yield from fh.write_all(patterns[ctx.rank])
        dt = ctx.now - t0
        yield from fh.close()
        return dt

    times = world.run(body)
    fd = layer._open_slots["/g/t"][0]
    return machine, fd, max(times)


HINTS = {"cb_nodes": "2", "cb_buffer_size": "16k", "romio_cb_write": "enable"}


class TestEquivalence:
    strided = staticmethod(strided_adhoc)

    def test_same_rounds(self):
        patterns = self.strided(8)
        _, fd_flow, _ = run("flow", HINTS, patterns)
        _, fd_model, _ = run("model", HINTS, patterns)
        assert fd_flow._calls[0].ntimes == fd_model._calls[0].ntimes

    def test_same_domains(self):
        patterns = self.strided(8)
        _, fd_flow, _ = run("flow", HINTS, patterns)
        _, fd_model, _ = run("model", HINTS, patterns)
        assert fd_flow._calls[0].domains == fd_model._calls[0].domains

    def test_same_bytes_persisted(self):
        patterns = self.strided(8)
        m_flow, _, _ = run("flow", HINTS, patterns)
        m_model, _, _ = run("model", HINTS, patterns)
        f1 = m_flow.pfs.lookup("/g/t")
        f2 = m_model.pfs.lookup("/g/t")
        assert f1.persisted.total == f2.persisted.total
        assert list(f1.persisted) == list(f2.persisted)

    def test_same_coverage_with_holes(self):
        patterns = []
        for r in range(8):
            offs = np.array([r * 10 * KiB])
            patterns.append(RankAccess(offs, np.array([4 * KiB])))
        m_flow, _, _ = run("flow", HINTS, patterns)
        m_model, _, _ = run("model", HINTS, patterns)
        assert list(m_flow.pfs.lookup("/g/t").persisted) == list(
            m_model.pfs.lookup("/g/t").persisted
        )

    def test_wallclock_within_factor(self):
        patterns = self.strided(8, block=16 * KiB, reps=8)
        _, _, t_flow = run("flow", HINTS, patterns)
        _, _, t_model = run("model", HINTS, patterns)
        assert t_model == pytest.approx(t_flow, rel=1.5)

    def test_model_sends_match_flow_slices(self):
        """The batched per-round send and piece matrices equal per-slice
        computation, whichever way the call came by its table."""
        patterns = self.strided(8)
        _, fd_model, _ = run("model", HINTS, patterns)
        call = fd_model._calls[0]
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

    def test_flow_and_model_gather_the_same_table(self):
        patterns = self.strided(8)
        _, fd_flow, _ = run("flow", HINTS, patterns)
        _, fd_model, _ = run("model", HINTS, patterns)
        t_flow, t_model = fd_flow._calls[0].table, fd_model._calls[0].table
        assert t_flow.offsets.tolist() == t_model.offsets.tolist()
        assert t_flow.rank_ptr.tolist() == t_model.rank_ptr.tolist()
        assert fd_flow._calls[0].interleaved and fd_model._calls[0].interleaved
        call = fd_flow._calls[0]
        assert (call.min_st, call.max_end) == (0, 128 * KiB - 1)


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

    for mode in ("flow", "model"):
        prof = SimProfiler()
        run(mode, HINTS, build(8), profiler=prof)
        counts = {k: v for k, v in prof.counters.items() if k.startswith("access.")}
        assert counts == {counter: 1}, mode


def test_translated_memo_hit_writes_every_byte():
    """Two calls whose patterns differ only by a file offset share one model
    memo entry; the second must still write its own byte range (the entry
    used to restore coverage *ends* untranslated, dropping the write)."""
    machine, world, layer = make_cluster(exchange="model")
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
