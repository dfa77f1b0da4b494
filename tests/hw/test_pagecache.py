import pytest

from repro.config import small_testbed
from repro.hw.node import ComputeNode
from repro.reference import HeapSimulator
from repro.units import MiB


def make_node(**overrides):
    sim = HeapSimulator()
    cfg = small_testbed(**overrides)
    return sim, ComputeNode(sim, 0, cfg)


class TestPageCache:
    def test_small_write_at_memory_speed(self):
        sim, node = make_node()
        pc = node.page_cache

        def proc():
            yield pc.buffered_write(1, 4 * MiB)

        sim.run(until=sim.process(proc()))
        expected = 4 * MiB / node.config.ram.memcpy_bw
        # writeback continues afterwards but the write itself was fast
        assert sim.now <= expected * 1.01 + 1e-9 or pc.dirty >= 0

    def test_dirty_tracked_per_file(self):
        sim, node = make_node()
        pc = node.page_cache

        def proc():
            yield pc.buffered_write(1, MiB)
            yield pc.buffered_write(2, 2 * MiB)

        sim.process(proc())
        sim.run(until=1e-4)  # before much writeback happens
        assert pc.dirty_of(1) + pc.dirty_of(2) == pc.dirty

    def test_writeback_drains(self):
        sim, node = make_node()
        pc = node.page_cache

        def proc():
            yield pc.buffered_write(1, 8 * MiB)

        sim.process(proc())
        sim.run()
        assert pc.dirty == 0
        assert node.ssd.bytes_written == 8 * MiB

    def test_fsync_waits_for_file(self):
        sim, node = make_node()
        pc = node.page_cache

        def proc():
            yield pc.buffered_write(7, 16 * MiB)
            t0 = sim.now
            yield from pc.fsync(7)
            return sim.now - t0

        p = sim.process(proc())
        sim.run()
        assert p.value > 0  # had to wait for the device
        assert pc.dirty_of(7) == 0

    def test_fsync_clean_file_is_instant(self):
        sim, node = make_node()
        pc = node.page_cache

        def proc():
            yield from pc.fsync(99)
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 0.0

    def test_throttling_over_dirty_limit(self):
        # Tiny RAM: dirty limit = 0.2 * 64 MiB ≈ 12.8 MiB.
        from dataclasses import replace

        sim = HeapSimulator()
        cfg = small_testbed()
        cfg = cfg.scaled(ram=replace(cfg.ram, capacity=64 * MiB))
        node = ComputeNode(sim, 0, cfg)
        pc = node.page_cache

        def proc():
            yield pc.buffered_write(1, 64 * MiB)  # 5x the dirty limit
            return sim.now

        p = sim.process(proc())
        sim.run()
        device_time = 64 * MiB / cfg.ssd.write_bw
        # Most of the write had to proceed at device speed.
        assert p.value > device_time * 0.5


class TestMemoryAccounting:
    def test_pin_unpin_peak(self):
        _, node = make_node()
        node.pin_memory(100)
        node.pin_memory(50)
        node.unpin_memory(100)
        node.pin_memory(10)
        assert node.pinned_bytes == 60
        assert node.peak_pinned_bytes == 150

    def test_unpin_clamps_at_zero(self):
        _, node = make_node()
        node.pin_memory(10)
        node.unpin_memory(100)
        assert node.pinned_bytes == 0

    def test_memcpy_duration(self):
        sim, node = make_node()

        def proc():
            yield from node.memcpy(node.config.ram.memcpy_bw)  # exactly 1 second

        sim.run(until=sim.process(proc()))
        assert sim.now == pytest.approx(1.0)
