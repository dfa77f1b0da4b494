import numpy as np
import pytest

from repro.romio.adio import BeeGFSDriver, UFSDriver, get_driver
from repro.romio.aggregation import domains_are_stripe_aligned
from repro.sim.core import SimError
from repro.units import KiB
from tests.conftest import make_cluster


class TestRegistry:
    def test_known_drivers(self):
        assert isinstance(get_driver("ufs"), UFSDriver)
        assert isinstance(get_driver("beegfs"), BeeGFSDriver)

    def test_unknown_driver(self):
        with pytest.raises(SimError, match="unknown ADIO driver"):
            get_driver("lustre2000")


def open_fd(layer, world, hints):
    holder = {}

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/t", hints)
        holder[ctx.rank] = fh
        yield from fh.close()

    world.run(body)
    return holder[0].fd


class TestPartitioning:
    def test_beegfs_aligns_to_stripes(self):
        machine, world, layer = make_cluster(driver="beegfs")
        fd = open_fd(layer, world, {"striping_unit": "16k", "cb_nodes": "3"})
        domains = fd.driver.partition_domains(fd, 0, 200 * KiB - 1)
        assert domains_are_stripe_aligned(domains, 16 * KiB)

    def test_ufs_divides_evenly(self):
        machine, world, layer = make_cluster(driver="ufs")
        fd = open_fd(layer, world, {"cb_nodes": "4"})
        domains = fd.driver.partition_domains(fd, 0, 399)
        assert [d.size for d in domains] == [100, 100, 100, 100]

    def test_locking_policy_differs(self):
        _, world_u, layer_u = make_cluster(driver="ufs")
        fd_u = open_fd(layer_u, world_u, {})
        _, world_b, layer_b = make_cluster(driver="beegfs")
        fd_b = open_fd(layer_b, world_b, {})
        assert fd_u.driver.write_locking(fd_u) is True
        assert fd_b.driver.write_locking(fd_b) is False


class TestCacheHookPoints:
    def test_open_cache_only_for_aggregators(self):
        machine, world, layer = make_cluster()
        hints = {"e10_cache": "enable", "cb_nodes": "2"}
        states = {}

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", hints)
            states[ctx.rank] = fh.fd.cache_state(ctx.rank)
            yield from fh.close()

        world.run(body)
        with_cache = [r for r, s in states.items() if s is not None]
        assert len(with_cache) == 2
        # aggregators are node-leading ranks
        assert all(r % 2 == 0 for r in with_cache)

    def test_write_contig_direct_when_no_cache_state(self):
        machine, world, layer = make_cluster()

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", {})
            if ctx.rank == 3:  # a non-aggregator-style direct write
                data = np.arange(100, dtype=np.uint8)
                yield fh.fd.driver.write_contig(fh.fd, 3, 0, 100, data)
            yield from fh.close()

        world.run(body)
        f = machine.pfs.lookup("/g/t")
        assert f.persisted.covers(0, 100)

    def test_flush_noop_without_cache(self):
        machine, world, layer = make_cluster()

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", {})
            # Must not raise; None means nothing to wait on.
            assert fh.fd.driver.flush(fh.fd, ctx.rank) is None
            yield from fh.close()
            return True

        assert all(world.run(body))
