"""Aggregator-crash recovery: journals, replay, and byte-level integrity."""

import numpy as np
import pytest

from repro.config import small_testbed
from repro.faults import CacheJournal, FaultSchedule, FaultSpec, JobAborted
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
    "e10_cache_flush_flag": "flush_onclose",
    "e10_cache_discard_flag": "enable",
    "romio_cb_write": "enable",
    "cb_nodes": "4",
    "cb_buffer_size": "32k",
    "ind_wr_buffer_size": "8k",
}
NUM_FILES = 2
PREFIX = "/g/rec_"


def crash_schedule():
    return FaultSchedule.of(
        FaultSpec(
            "aggregator_crash", on_event=f"write_done:{NUM_FILES - 1}", delay=2e-3
        )
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
    """Second MPI job on the surviving machine: open + close every file."""
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


class TestCrash:
    def test_crash_surfaces_as_job_aborted(self):
        machine, world, layer = build(crash_schedule())
        with pytest.raises(Interrupt) as exc_info:
            world.run(phased_body(layer, make_wl()))
        assert isinstance(exc_info.value.cause, JobAborted)
        assert exc_info.value.cause.spec.kind == "aggregator_crash"
        assert machine.faults.crash_time is not None

    def test_crash_leaves_orphan_journals(self):
        machine, world, layer = build(crash_schedule())
        with pytest.raises(Interrupt):
            world.run(phased_body(layer, make_wl()))
        # The crash hit mid flush/close: at least one journal still holds
        # persisted-but-unflushed extents.
        assert machine.recovery.entries()
        assert any(
            machine.recovery.has_orphans(f"{PREFIX}{k}") for k in range(NUM_FILES)
        )

    def test_replay_restores_byte_identical_files(self):
        wl = make_wl()
        # Fault-free reference on an identical fresh cluster.
        ref_machine, ref_world, ref_layer = build()
        ref_world.run(phased_body(ref_layer, wl))
        ref_imgs = {
            k: ref_machine.pfs.lookup(f"{PREFIX}{k}").data_image()
            for k in range(NUM_FILES)
        }

        machine, world, layer = build(crash_schedule())
        with pytest.raises(Interrupt):
            world.run(phased_body(layer, wl))
        run_recovery(machine)

        stats = machine.recovery.stats()
        assert stats["bytes_replayed"] > 0
        assert stats["files_recovered"] >= 1
        assert stats["recovery_time"] > 0.0
        for k in range(NUM_FILES):
            img = machine.pfs.lookup(f"{PREFIX}{k}").data_image()
            assert np.array_equal(img, ref_imgs[k]), f"file {k} differs after replay"
        # Every journal was consumed; a further open has nothing to replay.
        assert not machine.recovery.entries()

    def test_recovered_file_matches_access_pattern(self):
        wl = make_wl()
        machine, world, layer = build(crash_schedule())
        with pytest.raises(Interrupt):
            world.run(phased_body(layer, wl))
        run_recovery(machine)
        for k in range(NUM_FILES):
            img = machine.pfs.lookup(f"{PREFIX}{k}").data_image()
            assert np.array_equal(img, expected(machine, f"{PREFIX}{k}", wl))


class TestCleanShutdown:
    def test_clean_close_unregisters_journals(self):
        machine, world, layer = build()
        world.run(phased_body(layer, make_wl()))
        assert machine.recovery.entries() == []
        for k in range(NUM_FILES):
            assert not machine.recovery.has_orphans(f"{PREFIX}{k}")
        assert machine.recovery.stats()["files_recovered"] == 0


class TestCacheJournal:
    def _journal(self, **kw):
        defaults = dict(
            path="/g/x",
            rank=0,
            node_id=0,
            local_path="/scratch/x",
            local_file=None,
            file_id=1,
            sync_chunk=8,
            discard_on_close=True,
        )
        defaults.update(kw)
        return CacheJournal(**defaults)

    def test_unflushed_is_cached_minus_synced(self):
        j = self._journal()
        j.cached.add(0, 100)
        j.cached.add(200, 300)
        j.synced.add(0, 50)
        assert j.unflushed() == [(50, 100), (200, 300)]
        assert j.unflushed_bytes == 150

    def test_fully_synced_journal_has_nothing_to_replay(self):
        j = self._journal()
        j.cached.add(0, 64)
        j.synced.add(0, 64)
        assert j.unflushed() == []
        assert j.unflushed_bytes == 0
