"""What a small collective write charges each tier, read off the machine's
own counters after the run."""

from repro.access import RankAccess
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
        yield from fh.write_all(RankAccess.contiguous(ctx.rank * 8 * KiB, 8 * KiB))
        yield from fh.close()

    world.run(body)
    return machine


def ssd_bytes_written(machine):
    return sum(n.ssd.bytes_written for n in machine.nodes)


class TestCollect:
    def test_cached_run_touches_both_tiers(self):
        # the SSD-backed cache, whatever REPRO_CACHE_KIND the CI leg sets
        machine = run(dict(CACHE, e10_cache_kind="extent"))
        total = 8 * 8 * KiB
        # cache writes land on node SSDs (via writeback); the flush moves
        # everything through the servers — acked data may still sit in the
        # server write-back caches when the ranks finish, so RAID platters
        # plus dirty server bytes account for the total.
        assert ssd_bytes_written(machine) == total
        assert machine.pfs.bytes_persisted == total
        assert sum(s.target.bytes_written for s in machine.pfs.servers) > 0
        assert sum(s.rpcs_served for s in machine.pfs.servers) > 0
        assert machine.pfs.mds.ops >= 2  # create + close
        assert machine.now > 0
        assert machine.sim.events_fired > 0

    def test_uncached_run_skips_ssds(self):
        hints = {k: v for k, v in CACHE.items() if not k.startswith("e10")}
        machine = run(hints)
        assert ssd_bytes_written(machine) == 0
        assert machine.pfs.bytes_persisted == 8 * 8 * KiB

    def test_discard_leaves_scratch_empty(self):
        machine = run(CACHE)
        # e10_cache_discard_flag defaults to enable
        assert sum(fs.used for fs in machine.local_fs) == 0

    def test_peak_pinned_matches_cb_buffer(self):
        machine = run(CACHE)
        assert max(n.peak_pinned_bytes for n in machine.nodes) == 32 * KiB
