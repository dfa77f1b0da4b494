import numpy as np
import pytest

from repro import reference
from repro.config import small_testbed
from repro.machine import Machine
from repro.pfs.layout import StripeLayout, coalesce_target_runs
from repro.units import KiB, MiB


@pytest.fixture
def machine():
    return Machine(small_testbed())


def drive(machine, gen):
    return machine.sim.run(until=machine.sim.process(gen))


class TestCoalescing:
    def test_full_rows_coalesce_per_target(self):
        lay = StripeLayout(100, 4)
        runs = coalesce_target_runs(list(lay.chunks(0, 800)))  # two full rows
        assert len(runs) == 4  # one run per target
        for run in runs:
            assert sum(c.length for c in run) == 200

    def test_gap_splits_run(self):
        lay = StripeLayout(100, 2)
        chunks = list(lay.chunks(0, 100)) + list(lay.chunks(400, 100))
        runs = coalesce_target_runs(chunks)
        # both extents are on target 0 but not contiguous there
        assert len(runs) == 2

    def test_adjacent_rows_same_target_merge(self):
        lay = StripeLayout(100, 2)
        chunks = list(lay.chunks(0, 100)) + list(lay.chunks(200, 100))
        runs = coalesce_target_runs(chunks)
        assert len(runs) == 1
        assert sum(c.length for c in runs[0]) == 200


class TestWrite:
    def test_write_records_persisted(self, machine):
        client = machine.pfs_client(0)

        def proc():
            f = yield from client.create("/g/a", stripe_size=64 * KiB, stripe_count=4)
            yield client.write(f, 0, MiB)
            return f

        f = drive(machine, proc())
        assert f.persisted.covers(0, MiB)
        assert f.size == MiB

    def test_write_data_roundtrip(self, machine):
        client = machine.pfs_client(0)
        data = np.arange(200, dtype=np.uint8)

        def proc():
            f = yield from client.create("/g/a")
            yield client.write(f, 1000, 200, data=data)
            got = yield from client.read(f, 1000, 200)
            return got

        got = drive(machine, proc())
        assert np.array_equal(got, data)

    def test_concurrent_clients_share_servers(self):
        # Shrink the server write cache so sustained writes hit the disks,
        # where two concurrent writers must share the drain rate.
        from dataclasses import replace

        def build():
            cfg = small_testbed()
            return Machine(cfg.scaled(pfs=replace(cfg.pfs, server_cache_bytes=4 * MiB)))

        contended = build()
        results = []

        def writer(machine, rank, path, out):
            client = machine.pfs_client(rank)
            f = yield from client.create(path)
            t0 = machine.sim.now
            yield client.write(f, 0, 256 * MiB)
            out.append(machine.sim.now - t0)

        # 6 clients × 0.58 GiB/s channel demand ≈ 3.5 GiB/s, well above the
        # ~2.3 GiB/s aggregate drain: the disks must be the shared bottleneck.
        for rank in range(6):
            contended.sim.process(writer(contended, rank, f"/g/f{rank}", results))
        contended.sim.run()

        solo_machine = build()
        solo_results = []
        solo_machine.sim.process(writer(solo_machine, 0, "/g/a", solo_results))
        solo_machine.sim.run()
        # Early arrivals may still ride the drain headroom, but the tail
        # must be visibly slowed, and everyone is at least as slow as solo.
        assert max(results) > solo_results[0] * 1.3
        assert all(r >= solo_results[0] * 0.999 for r in results)

    def test_write_sync_slower_than_pipelined(self, machine):
        client = machine.pfs_client(0)

        def proc():
            f = yield from client.create("/g/a")
            t0 = machine.sim.now
            yield client.write(f, 0, 8 * MiB)
            pipelined = machine.sim.now - t0
            t0 = machine.sim.now
            yield from reference.write_sync(client, f, 8 * MiB, 8 * MiB, rpc_count=16)
            synchronous = machine.sim.now - t0
            return pipelined, synchronous

        pipelined, synchronous = drive(machine, proc())
        assert synchronous > pipelined * 2

    def test_write_sync_rpc_count_charges(self, machine):
        client = machine.pfs_client(0)

        def proc(count):
            f = yield from client.create(f"/g/n{count}")
            t0 = machine.sim.now
            yield from reference.write_sync(client, f, 0, MiB, rpc_count=count)
            return machine.sim.now - t0

        t_few = drive(machine, proc(1))
        t_many = drive(machine, proc(32))
        assert t_many > t_few

    def test_zero_length_write_noop(self, machine):
        client = machine.pfs_client(0)

        def proc():
            f = yield from client.create("/g/a")
            assert client.write(f, 0, 0) is None  # nothing to wait for
            return f

        f = drive(machine, proc())
        assert f.size == 0


class TestNamespace:
    def test_create_exists_unlink(self, machine):
        client = machine.pfs_client(0)

        def proc():
            yield from client.create("/g/x")

        drive(machine, proc())
        assert machine.pfs.exists("/g/x")
        machine.pfs.unlink("/g/x")
        assert not machine.pfs.exists("/g/x")

    def test_create_duplicate_rejected(self, machine):
        client = machine.pfs_client(0)

        def proc():
            yield from client.create("/g/x")
            with pytest.raises(FileExistsError):
                yield from client.create("/g/x")

        drive(machine, proc())

    def test_stripe_count_capped_by_servers(self, machine):
        client = machine.pfs_client(0)

        def proc():
            from repro.sim.core import SimError

            with pytest.raises(SimError):
                yield from client.create("/g/x", stripe_count=99)

        drive(machine, proc())

    def test_mds_ops_counted(self, machine):
        client = machine.pfs_client(0)

        def proc():
            f = yield from client.create("/g/x")
            yield from client.open("/g/x")
            yield from client.close(f)

        drive(machine, proc())
        assert machine.pfs.mds.ops == 3
