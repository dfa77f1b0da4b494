
from repro import reference
from repro.config import PFSConfig
from repro.pfs.server import DataServer, WriteBackCache, RaidTarget
from repro.reference import HeapSimulator
from repro.units import MiB
from tests.pfs.test_writeback_cache import drain_all


def make_server(**cfg_overrides):
    sim = HeapSimulator()
    cfg = PFSConfig(jitter_sigma=0.0, **cfg_overrides)
    return sim, DataServer(sim, 0, 0, cfg)


class TestWriteBackCache:
    def test_absorb_under_limit_is_instant(self):
        sim = HeapSimulator()
        target = RaidTarget(sim, "t", PFSConfig(jitter_sigma=0.0))
        cache = WriteBackCache(sim, target, limit=100 * MiB, drain_chunk=4 * MiB)

        def proc():
            yield from reference.absorb(cache, 10 * MiB)
            return sim.now

        p = sim.process(proc())
        sim.run(until=p)
        assert p.value == 0.0

    def test_drain_empties(self):
        sim = HeapSimulator()
        target = RaidTarget(sim, "t", PFSConfig(jitter_sigma=0.0))
        cache = WriteBackCache(sim, target, limit=100 * MiB, drain_chunk=4 * MiB)

        def proc():
            yield from reference.absorb(cache, 20 * MiB)
            yield from drain_all(cache)

        sim.run(until=sim.process(proc()))
        assert cache.dirty == 0
        assert target.bytes_written == 20 * MiB

    def test_throttles_when_full(self):
        sim = HeapSimulator()
        cfg = PFSConfig(jitter_sigma=0.0)
        target = RaidTarget(sim, "t", cfg)
        cache = WriteBackCache(sim, target, limit=8 * MiB, drain_chunk=4 * MiB)

        def proc():
            yield from reference.absorb(cache, 64 * MiB)
            return sim.now

        p = sim.process(proc())
        sim.run(until=p)
        # Most of the 64 MiB had to wait for drain at disk speed.
        assert p.value >= (64 - 8) * MiB / cfg.hdd.stream_bw * 0.9


class TestDataServer:
    def test_write_ack_before_disk(self):
        sim, srv = make_server()

        def proc():
            yield from reference.serve_write(srv, 0, 4 * MiB)
            return sim.now

        p = sim.process(proc())
        sim.run(until=p)
        # Ack came from the cache: far faster than the 4MiB disk time.
        assert p.value < 4 * MiB / srv.cfg.hdd.stream_bw

    def test_sustained_load_settles_to_disk_rate(self):
        sim, srv = make_server(server_cache_bytes=8 * MiB)
        total = 256 * MiB

        def proc():
            pos = 0
            while pos < total:
                yield from reference.serve_write(srv, pos, 4 * MiB)
                pos += 4 * MiB
            return sim.now

        p = sim.process(proc())
        sim.run(until=p)
        disk_floor = (total - 8 * MiB) / srv.cfg.hdd.stream_bw
        assert p.value >= disk_floor * 0.9

    def test_rpc_count_multiplies_overhead(self):
        sim, srv = make_server()

        def proc():
            t0 = sim.now
            yield from reference.serve_write(srv, 0, MiB, rpc_count=1)
            one = sim.now - t0
            t0 = sim.now
            yield from reference.serve_write(srv, MiB, MiB, rpc_count=10)
            ten = sim.now - t0
            return one, ten

        p = sim.process(proc())
        sim.run(until=p)
        one, ten = p.value
        assert ten >= one + 8 * srv.cfg.rpc_overhead

    def test_worker_pool_limits_concurrency(self):
        sim, srv = make_server()
        done = []

        def client(i):
            yield from reference.serve_write(srv, i * MiB, MiB)
            done.append(sim.now)

        for i in range(8):
            sim.process(client(i))
        sim.run()
        # 8 requests through 4 workers: at least two overhead waves.
        assert max(done) >= 2 * srv.cfg.rpc_overhead

    def test_jitter_reproducible(self):
        from repro.sim.rng import RngStreams

        def one(seed):
            sim = HeapSimulator()
            srv = DataServer(sim, 0, 0, PFSConfig(), rng=RngStreams(seed))

            def proc():
                for i in range(5):
                    yield from reference.serve_write(srv, i * MiB, MiB)
                return sim.now

            p = sim.process(proc())
            sim.run(until=p)
            return p.value

        assert one(3) == one(3)
        assert one(3) != one(4)

    def test_reads_hit_disk(self):
        sim, srv = make_server()

        def proc():
            t0 = sim.now
            yield from srv.serve_read(0, 4 * MiB)
            return sim.now - t0

        p = sim.process(proc())
        sim.run(until=p)
        assert p.value >= 4 * MiB / srv.cfg.hdd.stream_bw
