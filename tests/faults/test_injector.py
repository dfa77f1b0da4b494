"""Fault injector behaviour: windows, retries, degradation, determinism."""

import numpy as np
import pytest

from repro.config import small_testbed
from repro.faults import FaultSchedule, FaultSpec, TransientIOError
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.sim.core import SimError
from repro.units import KiB
from repro.workloads import ior_workload
from tests.conftest import payload_layer
from tests.integration.test_end_to_end import expected

CACHE_HINTS = {
    "e10_cache": "enable",
    "e10_cache_flush_flag": "flush_onclose",
    "romio_cb_write": "enable",
    "cb_nodes": "4",
    "cb_buffer_size": "32k",
    "ind_wr_buffer_size": "8k",
}
NOCACHE_HINTS = {k: v for k, v in CACHE_HINTS.items() if not k.startswith("e10")}


def run_ior(schedule, hints=CACHE_HINTS):
    """One collective IOR file under a fault schedule; returns (machine, wl)."""
    machine = Machine(small_testbed(), faults=schedule)
    world = MPIWorld(machine)
    layer = payload_layer(machine, world.comm)
    wl = ior_workload(8, block_bytes=8 * KiB, segments=2)

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/t", hints)
        for step in wl.steps:
            if step.kind == "collective":
                yield from fh.write_all(step.access_fn(ctx.rank))
            elif ctx.rank == 0:
                yield from fh.write_at(step.offset, step.nbytes)
        yield from fh.close()

    world.run(body)
    return machine, wl


class TestSSDIOErrors:
    def test_read_in_window_raises(self):
        sched = FaultSchedule.of(
            FaultSpec("ssd_io_error", target=0, start=0.0, duration=0.01, rate=1.0)
        )
        m = Machine(small_testbed(), faults=sched)
        ssd = m.nodes[0].ssd

        def body():
            try:
                yield from ssd.read(0, 1024)
            except TransientIOError:
                return "raised"
            return "ok"

        proc = m.sim.process(body())
        assert m.sim.run(until=proc) == "raised"
        assert ssd.io_errors_injected == 1

    def test_read_after_window_succeeds(self):
        sched = FaultSchedule.of(
            FaultSpec("ssd_io_error", target=0, start=0.0, duration=0.01, rate=1.0)
        )
        m = Machine(small_testbed(), faults=sched)
        ssd = m.nodes[0].ssd

        def body():
            yield m.sim.timeout(0.02)  # past the window
            yield from ssd.read(0, 1024)
            return "ok"

        proc = m.sim.process(body())
        assert m.sim.run(until=proc) == "ok"
        assert ssd.io_errors_injected == 0

    def test_untargeted_node_unaffected(self):
        sched = FaultSchedule.of(FaultSpec("ssd_io_error", target=0, rate=1.0))
        m = Machine(small_testbed(), faults=sched)
        ssd1 = m.nodes[1].ssd

        def body():
            yield from ssd1.read(0, 1024)
            return "ok"

        proc = m.sim.process(body())
        assert m.sim.run(until=proc) == "ok"

    def test_flaky_reads_retried_to_completion(self):
        # Open-ended window, 30% error rate: the sync thread's retry loop
        # rerolls each chunk until it gets through; the file must still be
        # byte-identical to the access pattern.
        sched = FaultSchedule.of(FaultSpec("ssd_io_error", target=0, rate=0.3))
        machine, wl = run_ior(sched)
        img = machine.pfs.lookup("/g/t").data_image()
        assert np.array_equal(img, expected(machine, "/g/t", wl))

    def test_deterministic_across_machines(self):
        sched = FaultSchedule.of(FaultSpec("ssd_io_error", target=0, rate=0.3))
        m1, _ = run_ior(sched)
        m2, _ = run_ior(sched)
        assert m1.sim.now == m2.sim.now
        assert m1.cache_stats == m2.cache_stats
        assert m1.faults.injected == m2.faults.injected
        assert np.array_equal(
            m1.pfs.lookup("/g/t").data_image(), m2.pfs.lookup("/g/t").data_image()
        )


class TestDeviceLoss:
    def test_loss_mid_run_degrades_but_completes(self):
        sched = FaultSchedule.of(FaultSpec("ssd_device_loss", target=0, start=5e-4))
        machine, wl = run_ior(sched)
        img = machine.pfs.lookup("/g/t").data_image()
        assert np.array_equal(img, expected(machine, "/g/t", wl))
        assert machine.cache_stats["degraded"] >= 1
        assert machine.nodes[0].ssd.read_only

    def test_loss_before_any_write_falls_back_entirely(self):
        sched = FaultSchedule.of(FaultSpec("ssd_device_loss", target=0, start=0.0))
        machine, wl = run_ior(sched)
        img = machine.pfs.lookup("/g/t").data_image()
        assert np.array_equal(img, expected(machine, "/g/t", wl))


class TestServerStall:
    def test_stall_delays_direct_writes(self):
        baseline, _ = run_ior(None, hints=NOCACHE_HINTS)
        sched = FaultSchedule.of(
            FaultSpec("server_stall", target=0, start=0.0, duration=0.02)
        )
        stalled, wl = run_ior(sched, hints=NOCACHE_HINTS)
        assert stalled.sim.now > baseline.sim.now
        assert stalled.faults.injected > 0
        img = stalled.pfs.lookup("/g/t").data_image()
        assert np.array_equal(img, expected(stalled, "/g/t", wl))

    def test_watchdog_converts_stall_to_retries(self):
        sched = FaultSchedule.of(
            FaultSpec("server_stall", target=0, start=0.0, duration=0.05),
            sync_rpc_timeout=0.005,
        )
        machine, wl = run_ior(sched)
        img = machine.pfs.lookup("/g/t").data_image()
        assert np.array_equal(img, expected(machine, "/g/t", wl))
        assert machine.cache_stats["retries"] > 0
        assert machine.cache_stats["sync_failures"] == 0


class TestLinkDegrade:
    def test_degraded_link_slows_run(self):
        """The traffic that crosses node 0's NIC is its aggregator's PFS
        stream (the two-phase shuffle is costed from the configured NIC
        rate, not carried by the fabric), so the NIC is degraded below
        that stream's rate."""
        baseline, _ = run_ior(None, hints=NOCACHE_HINTS)
        sched = FaultSchedule.of(
            FaultSpec("link_degrade", target=0, start=0.0, factor=0.001)
        )
        slow, wl = run_ior(sched, hints=NOCACHE_HINTS)
        assert slow.sim.now > baseline.sim.now
        img = slow.pfs.lookup("/g/t").data_image()
        assert np.array_equal(img, expected(slow, "/g/t", wl))

    def test_window_restores_capacity(self):
        sched = FaultSchedule.of(
            FaultSpec("link_degrade", target=0, start=0.0, duration=1e-3, factor=0.05)
        )
        machine, wl = run_ior(sched, hints=NOCACHE_HINTS)
        # After the window the fabric is back at full NIC rate.
        assert machine.fabric._out[0].capacity == machine.fabric.nic_bw
        img = machine.pfs.lookup("/g/t").data_image()
        assert np.array_equal(img, expected(machine, "/g/t", wl))


class TestValidation:
    def test_bad_node_target_rejected(self):
        with pytest.raises(SimError, match="4 nodes"):
            Machine(
                small_testbed(),
                faults=FaultSchedule.of(FaultSpec("ssd_io_error", target=99)),
            )

    def test_bad_server_target_rejected(self):
        with pytest.raises(SimError, match="data servers"):
            Machine(
                small_testbed(),
                faults=FaultSchedule.of(FaultSpec("server_stall", target=99)),
            )


class TestJobScopedRegistration:
    """The crash registry refuses to silently drop live ranks' coverage."""

    @staticmethod
    def _machine():
        sched = FaultSchedule.of(
            FaultSpec("aggregator_crash", on_event="write_done:1", delay=1e-3)
        )
        return Machine(small_testbed(), faults=sched)

    @staticmethod
    def _idle_procs(machine, n=2):
        def idle():
            yield machine.sim.timeout(0.01)

        return [machine.sim.process(idle()) for _ in range(n)]

    @pytest.mark.parametrize("job_tag", [None, "j0"])
    def test_double_registration_of_live_ranks_rejected(self, job_tag):
        m = self._machine()
        procs = self._idle_procs(m)
        m.faults.register_ranks(procs, job_tag=job_tag)
        with pytest.raises(SimError, match="live registered rank"):
            m.faults.register_ranks(self._idle_procs(m), job_tag=job_tag)

    def test_reregistration_after_ranks_finish_is_allowed(self):
        m = self._machine()
        procs = self._idle_procs(m)
        m.faults.register_ranks(procs, job_tag="j0")
        m.sim.run(until=m.sim.all_of(procs))
        m.faults.register_ranks(self._idle_procs(m), job_tag="j0")  # fine

    def test_distinct_job_tags_register_independently(self):
        m = self._machine()
        m.faults.register_ranks(self._idle_procs(m), job_tag="j0")
        m.faults.register_ranks(self._idle_procs(m), job_tag="j1")  # fine

    def test_deregistered_job_frees_the_tag_but_keeps_arrival_index(self):
        m = self._machine()
        m.faults.register_ranks(self._idle_procs(m), job_tag="j0")
        m.faults.register_ranks(self._idle_procs(m), job_tag="j1")
        m.faults.deregister_job("j0")
        m.faults.register_ranks(self._idle_procs(m), job_tag="j0")  # fine
        # job_index addressing stays stable across deregistration: j0 is
        # still the 0th arrival, j1 the 1st.
        assert m.faults._arrival_order == {"j0": 0, "j1": 1}
