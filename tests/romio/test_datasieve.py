import numpy as np

from repro.access import RankAccess
from repro.units import KiB
from tests.conftest import expected_image, make_cluster


def run_independent(pattern_fn, hints=None, nprocs=(4, 2)):
    machine, world, layer = make_cluster(*nprocs)
    base = {"romio_cb_write": "disable", "ind_wr_buffer_size": "8k"}
    base.update(hints or {})

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/t", base)
        n = yield from fh.write_strided(pattern_fn(ctx.rank))
        yield from fh.close()
        return n

    returns = world.run(body)
    return machine, machine.pfs.lookup("/g/t"), returns


def assert_written(pattern_fn, machine, f):
    """The file is zeros but for every rank's extents, which hold their payload."""
    accesses = [pattern_fn(r) for r in range(machine.config.num_ranks)]
    assert np.array_equal(f.data_image(), expected_image(machine, f.path, accesses, f.size))


class TestContiguousFastPath:
    def test_single_extent(self):
        def pattern(rank):
            return RankAccess.contiguous(rank * KiB, KiB)

        machine, f, returns = run_independent(pattern)
        assert_written(pattern, machine, f)
        assert returns == [KiB] * 8

    def test_dense_window_skips_rmw(self):
        # adjacent extents fully covering their windows: direct write path
        def pattern(rank):
            offs = np.array([rank * 4 * KiB, rank * 4 * KiB + 2 * KiB])
            lens = np.array([2 * KiB, 2 * KiB])
            return RankAccess(offs, lens)

        machine, f, _ = run_independent(pattern)
        assert_written(pattern, machine, f)


class TestSieving:
    def test_holes_trigger_rmw_and_preserve_existing(self):
        # interleaved strided extents across ranks: RMW under locks must not
        # lose any rank's bytes.
        def pattern(rank):
            offs = np.array([rank * KiB + k * 8 * KiB for k in range(4)])
            return RankAccess(offs, np.full(4, KiB))

        machine, f, _ = run_independent(pattern)
        assert_written(pattern, machine, f)

    def test_small_sieve_buffer_many_windows(self):
        def pattern(rank):
            offs = np.array([rank * KiB + k * 8 * KiB for k in range(4)])
            return RankAccess(offs, np.full(4, KiB))

        machine, f, _ = run_independent(pattern, hints={"ind_wr_buffer_size": "2k"})
        assert_written(pattern, machine, f)

    def test_empty_access_returns_zero(self):
        def pattern(rank):
            return RankAccess.empty_access()

        _, f, returns = run_independent(pattern)
        assert returns == [0] * 8

    def test_locks_used_for_rmw(self):
        def pattern(rank):
            # two extents with a hole inside one 8 KiB sieve window -> RMW
            offs = np.array([rank * 32 * KiB, rank * 32 * KiB + 3 * KiB])
            return RankAccess(offs, np.full(2, KiB))

        machine, _, _ = run_independent(pattern)
        assert machine.pfs.locks.acquires > 0
