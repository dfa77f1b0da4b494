import numpy as np
import pytest

from repro.config import small_testbed
from repro.hw.node import ComputeNode
from repro.localfs.ext4 import ENOSPC, LocalFileSystem
from repro.reference import HeapSimulator
from repro.sim.core import Event
from repro.units import GiB, KiB, MiB
from tests.conftest import flat_read


def make_fs(ssd_capacity=None):
    sim = HeapSimulator()
    cfg = small_testbed()
    if ssd_capacity is not None:
        from dataclasses import replace

        cfg = cfg.scaled(ssd=replace(cfg.ssd, capacity=ssd_capacity))
    node = ComputeNode(sim, 0, cfg)
    return sim, LocalFileSystem(node)


def drive(sim, work):
    """Run a generator as a process, or a chain to its Event, to the end."""
    if isinstance(work, Event):
        return sim.run(until=work)
    return sim.run(until=sim.process(work))


class TestNamespace:
    def test_open_create(self):
        _, fs = make_fs()
        f = fs.open("/scratch/a")
        assert fs.exists("/scratch/a")
        assert f.size == 0

    def test_open_missing_without_create(self):
        _, fs = make_fs()
        with pytest.raises(FileNotFoundError):
            fs.open("/scratch/nope", create=False)

    def test_unlink_reclaims_space(self):
        sim, fs = make_fs()
        f = fs.open("/scratch/a")
        drive(sim, fs.write(f, 0, MiB))
        used = fs.used
        assert used == MiB
        fs.close(f)
        fs.unlink("/scratch/a")
        assert fs.used == 0

    def test_unlink_while_open_defers_reclaim(self):
        sim, fs = make_fs()
        f = fs.open("/scratch/a")
        drive(sim, fs.write(f, 0, MiB))
        fs.unlink("/scratch/a")
        assert fs.used == MiB  # still open
        fs.close(f)
        assert fs.used == 0


class TestAllocation:
    def test_rewrite_charges_once(self):
        sim, fs = make_fs()
        f = fs.open("/scratch/a")
        drive(sim, fs.write(f, 0, MiB))
        drive(sim, fs.write(f, 0, MiB))
        assert f.allocated == MiB
        assert fs.used == MiB

    def test_enospc(self):
        sim, fs = make_fs(ssd_capacity=10 * MiB)
        f = fs.open("/scratch/a")
        with pytest.raises(ENOSPC):
            drive(sim, fs.write(f, 0, 11 * MiB))


class TestSparseAccounting:
    def test_sparse_offsets_charge_extent_bytes_only(self):
        sim, fs = make_fs()
        f = fs.open("/scratch/a")
        drive(sim, fs.write(f, 5 * GiB, MiB))  # cache files use global offsets
        assert fs.used == MiB
        assert f.size == 5 * GiB + MiB

    def test_overlapping_writes_charged_once(self):
        sim, fs = make_fs()
        f = fs.open("/scratch/a")
        drive(sim, fs.write(f, 0, MiB))
        drive(sim, fs.write(f, 512 * KiB, MiB))
        assert fs.used == MiB + 512 * KiB


class TestDataPath:
    def test_write_read_roundtrip(self):
        sim, fs = make_fs()
        f = fs.open("/scratch/a")
        data = np.arange(256, dtype=np.uint8)

        def proc():
            yield fs.write(f, 1000, 256, data)
            got = yield flat_read(sim, fs, f, 1000, 256)
            return got

        got = drive(sim, proc())
        assert np.array_equal(got, data)

    def test_partial_read_with_hole(self):
        sim, fs = make_fs()
        f = fs.open("/scratch/a")
        data = np.full(100, 7, dtype=np.uint8)

        def proc():
            yield fs.write(f, 100, 100, data)
            got = yield flat_read(sim, fs, f, 50, 200)
            return got

        got = drive(sim, proc())
        assert np.all(got[50:150] == 7)
        assert np.all(got[:50] == 0)

    def test_virtual_write_returns_none_on_read(self):
        sim, fs = make_fs()
        f = fs.open("/scratch/a")

        def proc():
            yield fs.write(f, 0, 1024)  # no payload
            got = yield flat_read(sim, fs, f, 0, 1024)
            return got

        assert drive(sim, proc()) is None

    def test_fsync_then_reads_hit_device(self):
        sim, fs = make_fs()
        f = fs.open("/scratch/a")

        def proc():
            yield fs.write(f, 0, 8 * MiB)
            yield from fs.fsync(f)
            t0 = sim.now
            yield flat_read(sim, fs, f, 0, 8 * MiB)
            return sim.now - t0

        dt = drive(sim, proc())
        # After fsync nothing is dirty: the read is device-speed.
        assert dt >= 8 * MiB / fs.node.config.ssd.read_bw * 0.9

    def test_data_image(self):
        sim, fs = make_fs()
        f = fs.open("/scratch/a")
        drive(sim, fs.write(f, 4, 4, np.array([1, 2, 3, 4], dtype=np.uint8)))
        img = f.data_image()
        assert list(img) == [0, 0, 0, 0, 1, 2, 3, 4]
