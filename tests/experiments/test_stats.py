import numpy as np

from repro.access import RankAccess
from repro.experiments.stats import collect
from repro.units import KiB
from tests.conftest import make_cluster

CACHE = {
    "e10_cache": "enable",
    "e10_cache_flush_flag": "flush_immediate",
    "romio_cb_write": "enable",
    "cb_nodes": "2",
    "cb_buffer_size": "32k",
}


def run(hints):
    machine, world, layer = make_cluster()

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/t", hints)
        data = np.full(8 * KiB, ctx.rank + 1, dtype=np.uint8)
        yield from fh.write_all(RankAccess.contiguous(ctx.rank * 8 * KiB, 8 * KiB, data))
        yield from fh.close()

    world.run(body)
    return machine


class TestCollect:
    def test_cached_run_touches_both_tiers(self):
        # the SSD-backed cache, whatever REPRO_CACHE_KIND the CI leg sets
        machine = run(dict(CACHE, e10_cache_kind="extent"))
        stats = collect(machine)
        total = 8 * 8 * KiB
        # cache writes land on node SSDs (via writeback); the flush moves
        # everything through the servers — acked data may still sit in the
        # server write-back caches when the ranks finish, so RAID platters
        # plus dirty server bytes account for the total.
        assert stats.ssd.bytes_written == total
        assert machine.pfs.bytes_persisted == total
        assert stats.pfs_targets.bytes_written > 0
        assert stats.server_rpcs > 0
        assert stats.mds_ops >= 2  # create + close
        assert stats.sim_time > 0
        assert stats.events > 0

    def test_uncached_run_skips_ssds(self):
        hints = {k: v for k, v in CACHE.items() if not k.startswith("e10")}
        machine = run(hints)
        stats = collect(machine)
        assert stats.ssd.bytes_written == 0
        assert machine.pfs.bytes_persisted == 8 * 8 * KiB

    def test_discard_leaves_scratch_empty(self):
        stats = collect(run(CACHE))
        assert stats.scratch_used == 0  # e10_cache_discard_flag defaults to enable

    def test_peak_pinned_matches_cb_buffer(self):
        stats = collect(run(CACHE))
        assert stats.peak_pinned == 32 * KiB

    def test_summary_renders(self):
        stats = collect(run(CACHE))
        text = stats.summary()
        assert "fabric traffic" in text
        assert "PFS RAID targets" in text
        assert "extent locks" in text
