"""Crash recovery on the NVMM WAL backend: journal replay reads durable
records from the log, torn records never reach the recovered file, and a
tear + retry + crash sequence replays idempotently (the overlay is applied
in append order, so the durable retry wins)."""

import numpy as np
import pytest

from repro.config import small_testbed
from repro.faults import FaultSchedule, FaultSpec
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio.file import MPIIOLayer
from repro.sim.core import Interrupt
from repro.units import KiB
from repro.workloads import ior_workload
from repro.workloads.phases import multi_phase_body
from tests.integration.test_end_to_end import expected

HINTS = {
    "e10_cache": "enable",
    "e10_cache_kind": "nvmm",
    "e10_cache_flush_flag": "flush_onclose",
    "e10_cache_discard_flag": "enable",
    "romio_cb_write": "enable",
    "cb_nodes": "4",
    "cb_buffer_size": "32k",
    "ind_wr_buffer_size": "8k",
}
NUM_FILES = 2
PREFIX = "/g/nvrec_"


def crash_schedule(extra=()):
    return FaultSchedule.of(
        *extra,
        FaultSpec(
            "aggregator_crash", on_event=f"write_done:{NUM_FILES - 1}", delay=2e-3
        ),
    )


def build(faults=None):
    machine = Machine(small_testbed(), faults=faults)
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm, driver="beegfs", exchange_mode="flow")
    return machine, world, layer


def phased_body(layer, wl):
    return multi_phase_body(
        layer,
        wl,
        HINTS,
        num_files=NUM_FILES,
        compute_delay=0.05,
        deferred_close=True,
        file_prefix=PREFIX,
    )


def make_wl():
    return ior_workload(8, block_bytes=8 * KiB, segments=2)


def run_recovery(machine):
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm, driver="beegfs", exchange_mode="flow")
    paths = [
        f"{PREFIX}{k}" for k in range(NUM_FILES) if machine.pfs.exists(f"{PREFIX}{k}")
    ]

    def body(ctx):
        for path in paths:
            fh = yield from layer.open(ctx.rank, path, {})
            yield from fh.close()

    world.run(body)
    return paths


class TestNvmmCrashRecovery:
    def test_crashed_journals_carry_wals_not_descriptors(self):
        machine, world, layer = build(crash_schedule())
        with pytest.raises(Interrupt):
            world.run(phased_body(layer, make_wl()))
        journals = machine.recovery.entries()
        assert journals
        assert all(j.wal is not None for j in journals)
        assert all(j.local_file is None for j in journals)
        assert any(j.wal.durable_records > 0 for j in journals)

    def test_replay_from_wal_restores_files(self):
        wl = make_wl()
        machine, world, layer = build(crash_schedule())
        with pytest.raises(Interrupt):
            world.run(phased_body(layer, wl))
        run_recovery(machine)
        assert machine.recovery.stats()["bytes_replayed"] > 0
        for k in range(NUM_FILES):
            img = machine.pfs.lookup(f"{PREFIX}{k}").data_image()
            exp = expected(machine, f"{PREFIX}{k}", wl)
            assert np.array_equal(img, exp), f"file {k} differs after WAL replay"
        assert not machine.recovery.entries()
        # discard-on-close recovery released every log region
        assert all(n.nvmm.log_used == 0 for n in machine.nodes)

    def test_torn_then_crash_replays_idempotently(self):
        """A tear window forces retried appends: the log holds torn records
        *and* their durable retries for the same extents.  Replay after a
        crash must land exactly the retried bytes."""
        wl = make_wl()
        tear = FaultSpec(
            "nvmm_torn_write", target=0, start=0.0, duration=5.0, rate=0.5
        )
        machine, world, layer = build(crash_schedule(extra=(tear,)))
        with pytest.raises(Interrupt):
            world.run(phased_body(layer, wl))
        journals = machine.recovery.entries()
        assert journals
        torn = sum(j.wal.torn_records for j in journals)
        run_recovery(machine)
        for k in range(NUM_FILES):
            img = machine.pfs.lookup(f"{PREFIX}{k}").data_image()
            exp = expected(machine, f"{PREFIX}{k}", wl)
            assert np.array_equal(img, exp), f"file {k} differs after torn replay"
        assert torn > 0, "the tear window never fired — schedule too narrow"

    def test_clean_nvmm_run_leaves_no_state(self):
        machine, world, layer = build()
        world.run(phased_body(layer, make_wl()))
        assert machine.recovery.entries() == []
        assert all(n.nvmm.log_used == 0 for n in machine.nodes)
        assert all(n.ssd.bytes_written == 0 for n in machine.nodes)
