"""NVMM write-ahead log: append/barrier semantics, torn records, capacity
accounting, and read-back overlay order."""

import math

import numpy as np
import pytest

from repro.config import small_testbed
from repro.faults.errors import DeviceLostError, TornWriteError
from repro.localfs.ext4 import ENOSPC
from repro.machine import Machine
from repro.cache.nvmlog import NVMMWriteLog
from repro.sim.core import SimError
from tests.conftest import flat_read


@pytest.fixture
def machine():
    return Machine(small_testbed())


@pytest.fixture
def wal(machine):
    return NVMMWriteLog(machine, node_id=0, name="t")


def run(machine, gen):
    return machine.sim.run(until=machine.sim.process(gen))


def payload(n, fill):
    return np.full(n, fill, dtype=np.uint8)


class AlwaysTear:
    """Injector stand-in whose every WAL append tears."""

    def wal_tear_decision(self, node_id, offset, nbytes):
        return True

    def torn_write_error(self, node_id, offset, nbytes):
        return TornWriteError(f"torn [{offset}, {offset + nbytes})")


class TestAppend:
    def test_durable_append_charges_log_and_barrier(self, machine, wal):
        def proc():
            yield wal.append(0, 1024, payload(1024, 7))

        run(machine, proc())
        dev = wal.device
        assert wal.durable_records == 1
        assert wal.bytes_appended == 1024
        assert dev.log_used == wal.header + 1024
        assert wal.records[0].durable and not wal.records[0].torn
        # device time (latency + bytes/bw) plus the persistence barrier
        expected = dev.latency + (wal.header + 1024) / dev.write_bw + dev.persist_barrier
        assert machine.sim.now == pytest.approx(expected)

    def test_payload_copied_not_aliased(self, machine, wal):
        buf = payload(64, 1)

        def proc():
            yield wal.append(0, 64, buf)

        run(machine, proc())
        buf[:] = 9  # caller reuses its buffer
        assert wal.gather(0, 64).max() == 1

    def test_gather_overlays_in_append_order(self, machine, wal):
        def proc():
            yield wal.append(0, 100, payload(100, 1))
            yield wal.append(50, 100, payload(100, 2))

        run(machine, proc())
        out = wal.gather(0, 150)
        assert out[:50].tolist() == [1] * 50
        assert out[50:].tolist() == [2] * 100  # the later record wins

    def test_gather_none_without_payloads(self, machine, wal):
        def proc():
            yield wal.append(0, 128, None)  # virtual run: no data kept

        run(machine, proc())
        assert wal.durable_records == 1
        assert wal.gather(0, 128) is None

    def test_read_charges_device_time(self, machine, wal):
        def proc():
            yield wal.append(0, 4096, payload(4096, 3))
            t0 = machine.sim.now
            data = yield flat_read(machine.sim, wal, 0, 4096)
            return data, machine.sim.now - t0

        data, took = run(machine, proc())
        assert data.tolist() == [3] * 4096
        assert took == pytest.approx(wal.device.latency + 4096 / wal.device.read_bw)


class TestTornAppend:
    def test_torn_append_raises_and_is_skipped(self, machine, wal):
        wal._injector = AlwaysTear()

        def proc():
            with pytest.raises(TornWriteError):
                yield wal.append(0, 1000, payload(1000, 5))

        run(machine, proc())
        rec = wal.records[0]
        assert rec.torn and not rec.durable and rec.data is None
        assert wal.torn_records == 1
        assert wal.torn_bytes == 1000
        assert wal.durable_records == 0
        assert wal.gather(0, 1000) is None  # CRC-skipped on read-back

    def test_torn_slot_still_consumes_log_space(self, machine, wal):
        wal._injector = AlwaysTear()

        def proc():
            try:
                yield wal.append(0, 1000, payload(1000, 5))
            except TornWriteError:
                pass

        run(machine, proc())
        assert wal.device.log_used == wal.header + 1000

    def test_retry_after_tear_recovers(self, machine, wal):
        wal._injector = AlwaysTear()

        def proc():
            try:
                yield wal.append(0, 256, payload(256, 4))
            except TornWriteError:
                pass
            wal._injector = None  # window closes: the retry goes through
            yield wal.append(0, 256, payload(256, 4))

        run(machine, proc())
        assert wal.torn_records == 1 and wal.durable_records == 1
        assert wal.gather(0, 256).tolist() == [4] * 256


class TestCapacity:
    def test_append_enospc_when_region_full(self, machine, wal):
        wal.device.capacity_bytes = wal.header + 512

        def proc():
            yield wal.append(0, 512, payload(512, 1))
            with pytest.raises(ENOSPC):
                yield wal.append(512, 1, payload(1, 1))

        run(machine, proc())

    def test_discard_releases_region(self, machine, wal):
        def proc():
            yield wal.append(0, 2048, payload(2048, 6))

        run(machine, proc())
        assert wal.device.log_used > 0
        wal.discard()
        assert wal.device.log_used == 0
        assert wal.records == [] and wal.reserved == 0

    def test_two_logs_share_the_region(self, machine):
        a = NVMMWriteLog(machine, 0, "a")
        b = NVMMWriteLog(machine, 0, "b")

        def proc():
            yield a.append(0, 100, None)
            yield b.append(0, 200, None)

        run(machine, proc())
        assert a.device is b.device
        assert a.device.log_used == a.header + 100 + b.header + 200
        a.discard()
        assert b.device.log_used == b.header + 200

    @pytest.mark.parametrize("nbytes", [-4096, -1, math.nan, math.inf])
    def test_a_bad_size_is_refused_before_anything_is_charged(self, wal, nbytes):
        """The refusal names the caller's size, not the record's, and
        leaves the region and the log's reservation as they were."""
        with pytest.raises(SimError, match=f"got {nbytes!r}$"):
            wal.append(0, nbytes, None)
        assert wal.device.log_used == wal.reserved == 0

    def test_read_only_device_rejects_appends(self, machine, wal):
        wal.device.read_only = True

        def proc():
            with pytest.raises(DeviceLostError):
                yield wal.append(0, 10, None)

        run(machine, proc())
