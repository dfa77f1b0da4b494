"""MPI-IO consistency semantics (paper Section III-B).

Cached data becomes globally visible only after (a) flush-immediate sync
completion, (b) MPI_File_close() return, or (c) MPI_File_sync() return; the
``coherent`` mode additionally locks in-transit extents against readers.
"""

import numpy as np

from repro.access import RankAccess
from repro.units import KiB
from tests.conftest import file_payload, make_cluster

CACHE_HINTS = {
    "e10_cache": "enable",
    "e10_cache_flush_flag": "flush_immediate",
    "cb_nodes": "2",
    "romio_cb_write": "enable",
}


def rank_pattern(rank, block=4 * KiB):
    return RankAccess.contiguous(rank * block, block)


class TestVisibility:
    def test_not_visible_right_after_write_all(self):
        machine, world, layer = make_cluster()
        persisted_at_write = []

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", CACHE_HINTS)
            yield from fh.write_all(rank_pattern(ctx.rank))
            if ctx.rank == 0:
                persisted_at_write.append(machine.pfs.lookup("/g/t").persisted.total)
            yield from fh.close()

        world.run(body)
        total = 8 * 4 * KiB
        # Right after write_all returns, the background flush has barely
        # started: not everything can already be persistent.
        assert persisted_at_write[0] < total
        assert machine.pfs.lookup("/g/t").persisted.total == total

    def test_visible_after_close(self):
        machine, world, layer = make_cluster()

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", CACHE_HINTS)
            yield from fh.write_all(rank_pattern(ctx.rank))
            yield from fh.close()

        world.run(body)
        f = machine.pfs.lookup("/g/t")
        assert f.persisted.covers(0, 8 * 4 * KiB)
        assert np.array_equal(f.data_image(), file_payload(machine, f.path, 0, 8 * 4 * KiB))

    def test_visible_after_explicit_sync(self):
        machine, world, layer = make_cluster()
        persisted_after_sync = []

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", CACHE_HINTS)
            yield from fh.write_all(rank_pattern(ctx.rank))
            yield from fh.sync()
            if ctx.rank == 0:
                persisted_after_sync.append(machine.pfs.lookup("/g/t").persisted.total)
            yield from fh.close()

        world.run(body)
        assert persisted_after_sync[0] == 8 * 4 * KiB

    def test_flush_onclose_defers_all_traffic(self):
        machine, world, layer = make_cluster()
        hints = dict(CACHE_HINTS, e10_cache_flush_flag="flush_onclose")
        persisted_before_close = []

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", hints)
            yield from fh.write_all(rank_pattern(ctx.rank))
            yield from ctx.compute(5.0)  # plenty of time — but nothing flushes
            if ctx.rank == 0:
                persisted_before_close.append(machine.pfs.lookup("/g/t").persisted.total)
            yield from fh.close()

        world.run(body)
        assert persisted_before_close[0] == 0  # onclose: no background sync
        assert machine.pfs.lookup("/g/t").persisted.total == 8 * 4 * KiB

    def test_flush_none_never_persists(self):
        machine, world, layer = make_cluster()
        hints = dict(CACHE_HINTS, e10_cache_flush_flag="flush_none")

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", hints)
            yield from fh.write_all(rank_pattern(ctx.rank))
            yield from fh.close()

        world.run(body)
        assert machine.pfs.lookup("/g/t").persisted.total == 0


class TestCoherentMode:
    def test_reader_blocks_until_extent_persisted(self):
        machine, world, layer = make_cluster()
        hints = dict(CACHE_HINTS, e10_cache="coherent")
        read_times = []

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", hints)
            yield from fh.write_all(rank_pattern(ctx.rank))
            t0 = ctx.now
            if ctx.rank == 3:  # a non-aggregator reads while flush in flight
                got = yield from fh.read_at(0, 4 * KiB)
                read_times.append((ctx.now - t0, got))
            yield from fh.close()

        world.run(body)
        waited, got = read_times[0]
        # The read had to wait for the lock held over the in-transit extent
        # and then saw the persisted (correct) data.
        assert np.array_equal(got, file_payload(machine, "/g/t", 0, 4 * KiB))
        f = machine.pfs.lookup("/g/t")
        assert f.persisted.covers(0, 4 * KiB)

    def test_incoherent_read_can_see_stale_data(self):
        machine, world, layer = make_cluster()
        stale = []

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", CACHE_HINTS)
            yield from fh.write_all(rank_pattern(ctx.rank))
            if ctx.rank == 3:
                got = yield from fh.read_at(7 * 4 * KiB, 4 * KiB)
                stale.append(got)
            yield from fh.close()

        world.run(body)
        # Without coherent mode a read racing the flush may observe holes
        # (stale zeros) — that is the documented MPI-IO default — but never
        # bytes that belong elsewhere.
        got = stale[0]
        want = file_payload(machine, "/g/t", 7 * 4 * KiB, 4 * KiB)
        assert got is None or np.all((got == want) | (got == 0))

    def test_coherent_locks_released_after_close(self):
        machine, world, layer = make_cluster()
        hints = dict(CACHE_HINTS, e10_cache="coherent")

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", hints)
            yield from fh.write_all(rank_pattern(ctx.rank))
            yield from fh.close()

        world.run(body)
        f = machine.pfs.lookup("/g/t")
        for stripe in f.layout.stripes_covered(0, f.size):
            assert machine.pfs.locks.held(f.file_id, stripe) == "free"


class TestDiscardFlag:
    def test_discard_enable_removes_cache_file(self):
        machine, world, layer = make_cluster()
        hints = dict(CACHE_HINTS, e10_cache_discard_flag="enable")

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", hints)
            yield from fh.write_all(rank_pattern(ctx.rank))
            yield from fh.close()

        world.run(body)
        for fs in machine.local_fs:
            assert fs.used == 0
            assert not any("cache" in p for p in fs._files)

    def test_discard_disable_retains_cache_file(self):
        machine, world, layer = make_cluster()
        # a cache *file* is the extent cache's, whatever the CI leg's REPRO_CACHE_KIND
        hints = dict(CACHE_HINTS, e10_cache_discard_flag="disable", e10_cache_kind="extent")

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", hints)
            yield from fh.write_all(rank_pattern(ctx.rank))
            yield from fh.close()

        world.run(body)
        retained = [p for fs in machine.local_fs for p in fs._files]
        assert any(".cache" in p for p in retained)
        assert sum(fs.used for fs in machine.local_fs) == 8 * 4 * KiB
