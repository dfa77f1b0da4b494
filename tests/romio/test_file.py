import numpy as np
import pytest

from repro.access import RankAccess
from repro.sim.core import SimError
from repro.units import KiB
from tests.conftest import file_payload, make_cluster


class TestOpenClose:
    def test_collective_open_creates_once(self):
        machine, world, layer = make_cluster()

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", {})
            yield from fh.close()
            return fh.fd

        fds = world.run(body)
        assert all(fd is fds[0] for fd in fds)  # shared descriptor
        assert machine.pfs.exists("/g/t")

    def test_striping_hints_applied(self):
        machine, world, layer = make_cluster()

        def body(ctx):
            fh = yield from layer.open(
                ctx.rank, "/g/t", {"striping_unit": "64k", "striping_factor": "2"}
            )
            yield from fh.close()

        world.run(body)
        f = machine.pfs.lookup("/g/t")
        assert f.layout.stripe_size == 64 * KiB
        assert f.layout.stripe_count == 2

    def test_reopen_same_path_new_descriptor(self):
        machine, world, layer = make_cluster()

        def body(ctx):
            fh1 = yield from layer.open(ctx.rank, "/g/t", {})
            yield from fh1.close()
            fh2 = yield from layer.open(ctx.rank, "/g/t", {})
            yield from fh2.close()
            return fh1.fd is fh2.fd

        assert world.run(body) == [False] * 8

    def test_operation_on_closed_file_rejected(self):
        machine, world, layer = make_cluster()

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", {})
            yield from fh.close()
            with pytest.raises(SimError):
                yield from fh.write_at(0, 10)
            return True

        assert all(world.run(body))

    def test_get_info_roundtrip(self):
        machine, world, layer = make_cluster()

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", {"e10_cache": "enable"})
            info = fh.get_info()
            yield from fh.close()
            return info

        infos = world.run(body)
        assert infos[0]["e10_cache"] == "enable"

    def test_close_is_collective(self):
        machine, world, layer = make_cluster()
        exits = []

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", {})
            if ctx.rank == 0:
                yield from ctx.compute(0.5)  # rank 0 arrives late at close
            yield from fh.close()
            exits.append(ctx.now)

        world.run(body)
        assert max(exits) - min(exits) < 1e-6
        assert min(exits) >= 0.5


class TestIndependentIO:
    def test_write_at_and_read_at(self):
        machine, world, layer = make_cluster()
        data = np.arange(100, dtype=np.uint8)

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", {})
            if ctx.rank == 0:
                yield from fh.write_at(50, 100, data)
            yield from fh.sync()  # makes it visible + synchronises ranks
            got = yield from fh.read_at(50, 100)
            yield from fh.close()
            return got

        results = world.run(body)
        for got in results:
            assert np.array_equal(got, data)


class TestCacheFallback:
    def test_full_scratch_reverts_to_standard_open(self):
        """Paper: 'If for any reason the open of the cache file fails, the
        implementation reverts to standard open' — here the cache fills at
        write time and the driver falls back to the direct path."""

        machine, world, layer = make_cluster()
        # shrink node 0's scratch capacity to almost nothing
        for fs in machine.local_fs:
            fs.capacity = 4 * KiB

        def body(ctx):
            fh = yield from layer.open(
                ctx.rank,
                "/g/t",
                {"e10_cache": "enable", "e10_cache_flush_flag": "flush_immediate",
                 "cb_nodes": "2", "romio_cb_write": "enable"},
            )
            acc = RankAccess.contiguous(ctx.rank * 16 * KiB, 16 * KiB)
            yield from fh.write_all(acc)
            yield from fh.close()

        world.run(body)
        f = machine.pfs.lookup("/g/t")
        assert np.array_equal(f.data_image(), file_payload(machine, f.path, 0, 8 * 16 * KiB))
