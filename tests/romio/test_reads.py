import numpy as np

from repro.access import RankAccess
from repro.payload import gather_payload, payload_key
from repro.units import KiB
from tests.conftest import make_cluster


def write_then(read_body, write_hints=None):
    """All ranks write their strided pattern, then run read_body."""
    machine, world, layer = make_cluster()
    hints = {"cb_nodes": "2", "romio_cb_write": "enable", "ind_wr_buffer_size": "8k"}
    hints.update(write_hints or {})
    patterns = []
    for r in range(8):
        offs = np.array([r * KiB + k * 8 * KiB for k in range(3)])
        patterns.append(RankAccess(offs, np.full(3, KiB)))

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/t", hints)
        yield from fh.write_all(patterns[ctx.rank])
        yield from fh.sync()
        result = yield from read_body(ctx, fh, patterns)
        yield from fh.close()
        return result

    key = payload_key(machine.config.seed, "/g/t")
    return world.run(body), [gather_payload(key, p.offsets, p.lengths) for p in patterns]


class TestReadStrided:
    def test_read_back_own_pattern(self):
        def reader(ctx, fh, patterns):
            got = yield from fh.read_strided(patterns[ctx.rank])
            return got

        results, written = write_then(reader)
        for r, got in enumerate(results):
            assert np.array_equal(got, written[r])

    def test_read_other_ranks_pattern(self):
        def reader(ctx, fh, patterns):
            peer = (ctx.rank + 3) % 8
            got = yield from fh.read_strided(patterns[peer])
            return (peer, got)

        results, written = write_then(reader)
        for peer, got in results:
            assert np.array_equal(got, written[peer])

    def test_read_with_holes_gathers_correctly(self):
        def reader(ctx, fh, patterns):
            # read a window covering several ranks' interleaved pieces
            offs = np.array([0, 2 * KiB, 5 * KiB])
            lens = np.array([KiB, KiB, KiB])
            acc = RankAccess(offs, lens)
            got = yield from fh.read_strided(acc)
            return got

        results, written = write_then(reader)
        got = results[0]
        assert np.array_equal(got[0:KiB], written[0][:KiB])  # rank 0's first block
        assert np.array_equal(got[KiB : 2 * KiB], written[2][:KiB])  # offset 2KiB -> rank 2
        assert np.array_equal(got[2 * KiB :], written[5][:KiB])  # offset 5KiB -> rank 5

    def test_empty_access(self):
        def reader(ctx, fh, patterns):
            got = yield from fh.read_strided(RankAccess.empty_access())
            return got

        results, _ = write_then(reader)
        assert all(r is None for r in results)


class TestReadAll:
    def test_collective_read_synchronises(self):
        exit_times = []

        def reader(ctx, fh, patterns):
            if ctx.rank == 0:
                yield from ctx.compute(0.3)  # late arriver
            got = yield from fh.read_all(patterns[ctx.rank])
            exit_times.append(ctx.now)
            return got

        results, written = write_then(reader)
        for r, got in enumerate(results):
            assert np.array_equal(got, written[r])
        assert max(exit_times) - min(exit_times) < 1e-6

    def test_read_all_after_cached_write_sees_persistent_data(self):
        def reader(ctx, fh, patterns):
            got = yield from fh.read_all(patterns[ctx.rank])
            return got

        results, written = write_then(
            reader,
            write_hints={
                "e10_cache": "enable",
                "e10_cache_flush_flag": "flush_immediate",
                "ind_wr_buffer_size": "8k",
            },
        )
        # fh.sync() in the driver guarantees global visibility before reads
        for r, got in enumerate(results):
            assert np.array_equal(got, written[r])
