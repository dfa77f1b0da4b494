import numpy as np

from repro.access import RankAccess
from repro.mpiwrap.config import WrapConfig
from repro.mpiwrap.wrapper import MPIWrap
from repro.units import KiB
from tests.conftest import file_payload, make_cluster

CONFIG = WrapConfig.parse(
    """
[/g/ckpt_*]
e10_cache = enable
e10_cache_flush_flag = flush_immediate
cb_nodes = 2
romio_cb_write = enable
defer_close = true
"""
)


def pattern(rank):
    return RankAccess.contiguous(rank * 4 * KiB, 4 * KiB)


class TestDeferredClose:
    def test_close_returns_immediately_real_close_at_next_open(self):
        machine, world, layer = make_cluster()
        wrap = MPIWrap(layer, CONFIG)
        close_durations = []

        def body(ctx):
            fh0 = yield from wrap.file_open(ctx.rank, "/g/ckpt_0")
            yield from fh0.write_all(pattern(ctx.rank))
            t0 = ctx.now
            yield from fh0.close()  # deferred: instant
            close_durations.append(ctx.now - t0)
            yield from ctx.compute(2.0)
            fh1 = yield from wrap.file_open(ctx.rank, "/g/ckpt_1")  # closes ckpt_0
            yield from fh1.write_all(pattern(ctx.rank))
            yield from fh1.close()
            yield from wrap.finalize(ctx.rank)

        world.run(body)
        assert all(d == 0.0 for d in close_durations)
        assert wrap.outstanding_count() == 0
        for k in (0, 1):  # two files, two payloads: each holds its own
            f = machine.pfs.lookup(f"/g/ckpt_{k}")
            assert np.array_equal(f.data_image(), file_payload(machine, f.path, 0, 8 * 4 * KiB))

    def test_hints_injected_from_config(self):
        machine, world, layer = make_cluster()
        wrap = MPIWrap(layer, CONFIG)

        def body(ctx):
            fh = yield from wrap.file_open(ctx.rank, "/g/ckpt_0")
            info = fh.inner.get_info()
            yield from fh.close()
            yield from wrap.finalize(ctx.rank)
            return info

        infos = world.run(body)
        assert infos[0]["e10_cache"] == "enable"
        assert infos[0]["cb_nodes"] == "2"

    def test_unmatched_files_close_normally(self):
        machine, world, layer = make_cluster()
        wrap = MPIWrap(layer, CONFIG)

        def body(ctx):
            fh = yield from wrap.file_open(ctx.rank, "/g/other")
            yield from fh.write_all(pattern(ctx.rank))
            yield from fh.close()
            return wrap.outstanding_count(ctx.rank)

        counts = world.run(body)
        assert counts == [0] * 8

    def test_finalize_closes_stragglers(self):
        machine, world, layer = make_cluster()
        wrap = MPIWrap(layer, CONFIG)

        def body(ctx):
            fh = yield from wrap.file_open(ctx.rank, "/g/ckpt_0")
            yield from fh.write_all(pattern(ctx.rank))
            yield from fh.close()  # deferred
            yield from wrap.finalize(ctx.rank)

        world.run(body)
        f = machine.pfs.lookup("/g/ckpt_0")
        assert f.persisted.total == 8 * 4 * KiB

    def test_deferred_handle_remains_writable_semantics(self):
        # The paper: close 'returns success. Nevertheless, the file will not
        # be really closed' — its handle is kept internally.
        machine, world, layer = make_cluster()
        wrap = MPIWrap(layer, CONFIG)

        def body(ctx):
            fh = yield from wrap.file_open(ctx.rank, "/g/ckpt_0")
            yield from fh.write_all(pattern(ctx.rank))
            yield from fh.close()
            assert fh.pretend_closed
            yield from wrap.finalize(ctx.rank)
            return True

        assert all(world.run(body))

    def test_application_hints_overridden_by_config(self):
        machine, world, layer = make_cluster()
        wrap = MPIWrap(layer, CONFIG)

        def body(ctx):
            fh = yield from wrap.file_open(
                ctx.rank, "/g/ckpt_0", {"e10_cache": "disable"}
            )
            info = fh.inner.get_info()
            yield from fh.close()
            yield from wrap.finalize(ctx.rank)
            return info["e10_cache"]

        assert world.run(body) == ["enable"] * 8
