import numpy as np
import pytest

from repro.units import KiB
from repro.workloads import ior_workload
from repro.workloads.phases import multi_phase_body
from tests.conftest import file_payload, make_cluster


def run_phased(hints, deferred, num_files=3, compute=0.5, nprocs=(4, 2)):
    machine, world, layer = make_cluster(*nprocs)
    wl = ior_workload(8, block_bytes=4 * KiB, segments=2)
    body = multi_phase_body(
        layer, wl, hints, num_files=num_files, compute_delay=compute,
        deferred_close=deferred, file_prefix="/g/out_",
    )
    timings = world.run(body)
    return machine, wl, timings


class TestStandardWorkflow:
    def test_all_files_written_and_verified(self):
        hints = {"cb_nodes": "2", "romio_cb_write": "enable"}
        machine, wl, _ = run_phased(hints, deferred=False)
        for k in range(3):
            f = machine.pfs.lookup(f"/g/out_{k}")
            assert f.persisted.total == wl.file_size
            # IOR covers its file: every byte is its payload
            exp = file_payload(machine, f.path, 0, wl.file_size)
            assert np.array_equal(f.data_image(), exp)

    def test_per_phase_timings_recorded(self):
        hints = {"cb_nodes": "2", "romio_cb_write": "enable"}
        _, _, timings = run_phased(hints, deferred=False)
        assert all(len(t) == 3 for t in timings)
        for per_rank in timings:
            for k, phase in enumerate(per_rank):
                assert phase.write_time > 0
                assert phase.open_time > 0
                if k < 2:
                    assert phase.compute_time == pytest.approx(0.5, abs=1e-6)
                else:
                    assert phase.compute_time == 0.0  # none after the last write


class TestModifiedWorkflow:
    CACHE = {
        "cb_nodes": "2",
        "romio_cb_write": "enable",
        "e10_cache": "enable",
        "e10_cache_flush_flag": "flush_immediate",
        "ind_wr_buffer_size": "16k",
    }

    def test_close_deferred_to_next_open(self):
        machine, wl, timings = run_phased(self.CACHE, deferred=True)
        # all data still lands correctly
        for k in range(3):
            f = machine.pfs.lookup(f"/g/out_{k}")
            assert f.persisted.total == wl.file_size

    def test_sync_hidden_with_long_compute(self):
        _, _, timings = run_phased(self.CACHE, deferred=True, compute=2.0)
        for per_rank in timings:
            for k in range(2):  # all but the last phase
                assert per_rank[k].close_wait < 0.05

    def test_last_phase_sync_not_hidden(self):
        _, _, timings = run_phased(self.CACHE, deferred=True, compute=2.0)
        last_waits = [t[-1].close_wait for t in timings]
        assert max(last_waits) > 0  # nothing to hide behind

    def test_sync_not_hidden_with_tiny_compute(self):
        _, _, timings = run_phased(self.CACHE, deferred=True, compute=1e-4)
        waits = [t[0].close_wait for t in timings]
        assert max(waits) > 0
