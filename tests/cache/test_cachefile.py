import numpy as np

from repro.cache.cachefile import CacheState
from repro.cache.policy import CachePolicy
from repro.romio.hints import Hints
from repro.units import KiB
from tests.conftest import make_cluster


def make_state(machine, world, flush_mode="flush_immediate", coherent=False, rank=0):
    policy = CachePolicy(
        enabled=True,
        coherent=coherent,
        flush_mode=flush_mode,
        discard_on_close=True,
        cache_path="/scratch",
        sync_chunk=32 * KiB,
    )
    pfs_file = machine.pfs.create("/g/target")
    return CacheState(machine, rank, pfs_file, policy, world.comm), pfs_file


def drive(machine, gen):
    return machine.sim.run(until=machine.sim.process(gen))


class TestPolicyFromHints:
    def test_mapping(self):
        h = Hints.from_info(
            {
                "e10_cache": "coherent",
                "e10_cache_flush_flag": "flush_onclose",
                "e10_cache_discard_flag": "disable",
                "e10_cache_path": "/nvme",
                "ind_wr_buffer_size": "64k",
            }
        )
        p = CachePolicy.from_hints(h)
        assert p.enabled and p.coherent
        assert not p.flush_immediate and not p.flush_never
        assert not p.discard_on_close
        assert p.cache_path == "/nvme"
        assert p.sync_chunk == 64 * KiB


class TestWriteThroughCache:
    def test_immediate_submits_to_thread(self):
        machine, world, layer = make_cluster()
        state, pfs_file = make_state(machine, world)

        def proc():
            greq = yield state.write_through_cache(0, 64 * KiB, None)
            yield from greq.wait()

        drive(machine, proc())
        assert pfs_file.persisted.covers(0, 64 * KiB)
        assert machine.io_stats["bytes_flushed"] == 64 * KiB

    def test_onclose_defers(self):
        machine, world, layer = make_cluster()
        state, pfs_file = make_state(machine, world, flush_mode="flush_onclose")

        def proc():
            yield state.write_through_cache(0, 64 * KiB, None)
            yield machine.sim.timeout(10.0)
            before = pfs_file.persisted.total
            yield from state.flush()
            return before

        before = drive(machine, proc())
        assert before == 0
        assert pfs_file.persisted.total == 64 * KiB

    def test_data_reaches_global_file_intact(self):
        machine, world, layer = make_cluster()
        state, pfs_file = make_state(machine, world)
        data = np.arange(8 * KiB, dtype=np.uint64).astype(np.uint8)

        def proc():
            greq = yield state.write_through_cache(4 * KiB, 8 * KiB, data)
            yield from greq.wait()

        drive(machine, proc())
        got = pfs_file.read_back(4 * KiB, 8 * KiB)
        assert np.array_equal(got, data)

    def test_cached_interval_tracking(self):
        machine, world, layer = make_cluster()
        state, _ = make_state(machine, world, flush_mode="flush_onclose")

        def proc():
            yield state.write_through_cache(0, KiB, None)
            yield state.write_through_cache(4 * KiB, KiB, None)

        drive(machine, proc())
        assert state.cached.total == 2 * KiB
        assert state.bytes_cached == 2 * KiB

    def test_sync_complete_flag(self):
        machine, world, layer = make_cluster()
        state, _ = make_state(machine, world, flush_mode="flush_onclose")

        def proc():
            yield state.write_through_cache(0, KiB, None)
            pending = state.sync_complete
            yield from state.flush()
            return pending

        pending = drive(machine, proc())
        assert pending is False
        assert state.sync_complete


class TestClose:
    def test_close_flushes_and_discards(self):
        machine, world, layer = make_cluster()
        state, pfs_file = make_state(machine, world, flush_mode="flush_onclose")

        def proc():
            yield state.write_through_cache(0, 64 * KiB, None)
            yield from state.close()

        drive(machine, proc())
        assert state.closed
        assert pfs_file.persisted.total == 64 * KiB
        assert machine.local_fs[0].used == 0  # discarded
        assert not state.sync_thread.alive  # thread shut down
