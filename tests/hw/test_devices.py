import pytest

from repro.config import PFSConfig
from repro.hw.devices import SSDDevice
from repro.pfs.server import RaidTarget
from repro.reference import HeapSimulator
from repro.sim.rng import RngStreams


@pytest.fixture
def sim():
    return HeapSimulator()


def no_jitter_cfg():
    return PFSConfig(jitter_sigma=0.0)


class TestSSD:
    def test_write_time(self, sim):
        ssd = SSDDevice(sim, "s", write_bw=100.0, read_bw=200.0, latency=0.01, capacity_bytes=10**6)

        def proc():
            yield from ssd.write(0, 500)

        sim.run(until=sim.process(proc()))
        assert sim.now == pytest.approx(0.01 + 5.0)

    def test_read_faster_than_write(self, sim):
        ssd = SSDDevice(sim, "s", write_bw=100.0, read_bw=200.0, latency=0.0, capacity_bytes=10**6)
        assert ssd.service_time(0, 1000, is_write=False) < ssd.service_time(0, 1000, is_write=True)

    def test_queue_serialises(self, sim):
        ssd = SSDDevice(sim, "s", write_bw=100.0, read_bw=100.0, latency=0.0, capacity_bytes=10**6)
        ends = []

        def proc():
            yield from ssd.write(0, 100)
            ends.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert ends == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_stats(self, sim):
        ssd = SSDDevice(sim, "s", write_bw=100.0, read_bw=100.0, latency=0.0, capacity_bytes=10**6)

        def proc():
            yield from ssd.write(0, 100)
            yield from ssd.read(0, 50)

        sim.run(until=sim.process(proc()))
        assert ssd.bytes_written == 100
        assert ssd.bytes_read == 50
        assert ssd.requests_served == 2
        assert ssd.busy_time == pytest.approx(1.5)


class TestRaidTarget:
    def test_sequential_cheaper_than_random(self, sim):
        t = RaidTarget(sim, "r", no_jitter_cfg())
        first = t.service_time(0, 4096, True)  # cold: full seek
        seq = t.service_time(4096, 4096, True)  # extends the stream
        rand = t.service_time(10**9, 4096, True)  # far away: full seek
        assert seq < first
        assert rand > seq

    def test_stream_table_tracks_interleaved_writers(self, sim):
        t = RaidTarget(sim, "r", no_jitter_cfg(), max_streams=4)
        # Two interleaved sequential streams at distant offsets.
        t.service_time(0, 100, True)
        t.service_time(10**6, 100, True)
        assert t.seeks == 2
        t.service_time(100, 100, True)  # extends stream A
        t.service_time(10**6 + 100, 100, True)  # extends stream B
        assert t.seeks == 2  # no new seeks

    def test_stream_eviction(self, sim):
        t = RaidTarget(sim, "r", no_jitter_cfg(), max_streams=2)
        t.service_time(0, 10, True)
        t.service_time(1000, 10, True)
        t.service_time(2000, 10, True)  # evicts LRU (stream at 10)
        seeks_before = t.seeks
        t.service_time(10, 10, True)  # the evicted stream: full seek again
        assert t.seeks == seeks_before + 1

    def test_jitter_deterministic_per_seed(self):
        def one(seed):
            sim = HeapSimulator()
            rng = RngStreams(seed)
            t = RaidTarget(sim, "r", PFSConfig(jitter_sigma=0.35), rng)
            return [t.service_time(i * 10**6, 4096, True) for i in range(10)]

        assert one(1) == one(1)
        assert one(1) != one(2)
