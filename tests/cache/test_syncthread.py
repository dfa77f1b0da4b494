import pytest

from repro.cache.cachefile import CacheState
from repro.cache.policy import CachePolicy
from repro.units import KiB, MiB
from tests.conftest import make_cluster


def setup(machine, world, sync_chunk=32 * KiB):
    policy = CachePolicy(
        enabled=True,
        coherent=False,
        flush_mode="flush_immediate",
        discard_on_close=True,
        cache_path="/scratch",
        sync_chunk=sync_chunk,
    )
    pfs_file = machine.pfs.create("/g/target")
    state = CacheState(machine, 0, pfs_file, policy, world.comm)
    return state, pfs_file


def drive(machine, gen):
    return machine.sim.run(until=machine.sim.process(gen))


class TestChunking:
    def test_chunk_count_matches_ind_wr_buffer_size(self):
        machine, world, _ = make_cluster()
        state, pfs_file = setup(machine, world, sync_chunk=32 * KiB)
        client = state.sync_thread.client

        def proc():
            greq = yield state.write_through_cache(0, 256 * KiB, None)
            yield from greq.wait()

        drive(machine, proc())
        # 256 KiB in 32 KiB chunks = 8 synchronous RPC charges
        assert client.rpcs == 8

    def test_batched_flush_same_rpc_charges(self):
        # flush_batch_chunks is a fidelity knob: the number of charged RPCs
        # must not change.
        machine1, world1, _ = make_cluster()
        s1, _ = setup(machine1, world1)
        machine2, world2, _ = make_cluster(flush_batch_chunks=4)
        s2, _ = setup(machine2, world2)

        def proc(state, machine):
            greq = yield state.write_through_cache(0, 256 * KiB, None)
            yield from greq.wait()
            return machine.sim.now

        t1 = drive(machine1, proc(s1, machine1))
        t2 = drive(machine2, proc(s2, machine2))
        assert s1.sync_thread.client.rpcs == s2.sync_thread.client.rpcs
        # batched run is a close approximation in time as well
        assert t2 == pytest.approx(t1, rel=0.35)

    def test_fifo_order_of_requests(self):
        machine, world, _ = make_cluster()
        state, pfs_file = setup(machine, world)
        order = []

        def proc():
            g1 = yield state.write_through_cache(0, 32 * KiB, None)
            g2 = yield state.write_through_cache(MiB, 32 * KiB, None)
            g1.event.callbacks.append(lambda e: order.append("first"))
            g2.event.callbacks.append(lambda e: order.append("second"))
            yield from g2.wait()

        drive(machine, proc())
        assert order == ["first", "second"]

    def test_busy_time_accounted(self):
        machine, world, _ = make_cluster()
        state, _ = setup(machine, world)

        def proc():
            greq = yield state.write_through_cache(0, 128 * KiB, None)
            yield from greq.wait()

        drive(machine, proc())
        assert state.sync_thread.busy_time > 0
        assert state.sync_thread.requests_done == 1

    def test_shutdown_terminates_thread(self):
        machine, world, _ = make_cluster()
        state, _ = setup(machine, world)

        def proc():
            state.sync_thread.shutdown()
            yield machine.sim.timeout(0.001)

        drive(machine, proc())
        assert not state.sync_thread.alive


class TestOverlap:
    def test_flush_overlaps_foreground_compute(self):
        """The whole point of the paper: sync proceeds while the app computes."""
        machine, world, _ = make_cluster()
        state, pfs_file = setup(machine, world)

        def proc():
            yield state.write_through_cache(0, MiB, None)
            t_write_done = machine.sim.now
            yield machine.sim.timeout(5.0)  # 'compute'
            persisted_during_compute = pfs_file.persisted.total
            yield from state.flush()
            t_flush_done = machine.sim.now
            return t_write_done, persisted_during_compute, t_flush_done

        t_write, persisted, t_flush = drive(machine, proc())
        assert t_write < 0.1  # local write was fast
        assert persisted == MiB  # sync finished inside the compute window
        assert t_flush == pytest.approx(5.0 + t_write, abs=0.05)

    def test_reads_charge_ssd_or_pagecache(self):
        machine, world, _ = make_cluster()
        state, _ = setup(machine, world)

        def proc():
            greq = yield state.write_through_cache(0, MiB, None)
            yield from greq.wait()

        drive(machine, proc())
        node = machine.nodes[0]
        # the sync thread read the cached MiB back (page cache or SSD)
        assert node.ssd.bytes_read >= 0
        assert machine.io_stats["bytes_flushed"] == MiB
