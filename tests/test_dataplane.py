"""Bulk-transfer fast path: stack selection, faults that only arm, equivalence.

The production stack's bulk data plane must be invisible in every simulated
quantity — only the diagnostic event count may change against the reference
stack (``Machine(reference=True)``), where every grant, release and chunk is
its own event.  A fault schedule selects nothing: it attaches its injector's
hooks to the components it targets, and a faulted production machine keeps
every fast path.
"""

import pytest

from repro.cache.cachefile import CacheState
from repro.cache.policy import CachePolicy
from repro.cache.syncthread import Flush
from repro.config import small_testbed
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.faults import FaultSchedule, FaultSpec
from repro.faults.errors import SyncFailedError
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.net.fabric import Fabric
from repro.sim.core import SimError, Simulator
from repro.units import KiB

TINY = dict(scale=0.02, num_files=2, flush_batch_chunks=16)


def queues(machine):
    """Every device queue and server worker pool of ``machine``."""
    out = [dev.queue for node in machine.nodes for dev in (node.ssd, node.nvmm)]
    return out + [q for s in machine.pfs.servers for q in (s.workers, s.target.queue)]


class TestKindSelection:
    def test_default_is_bulk(self):
        m = Machine(small_testbed())
        assert not m.reference
        assert type(m.sim) is Simulator and type(m.fabric) is Fabric

    def test_env_override(self, monkeypatch):
        """The environment overrides nothing any more, and says so."""
        monkeypatch.setenv("REPRO_DATAPLANE", "chunked")
        with pytest.raises(SimError, match="REPRO_DATAPLANE.*retired in PR 22.*reference=True"):
            Machine(small_testbed())

    def test_machine_wires_fast_path_flags(self):
        """Nothing is wired: every device and server grants inline because
        the engine does, and clients bundle because the fabric does."""
        m = Machine(small_testbed())
        assert all(q.inline_grants for q in queues(m))
        assert m.pfs_client(0)._bulk and m.flush is Flush

    def test_faults_arm_their_targets_and_keep_every_fast_path(self):
        """A fault schedule attaches its injector to the components it
        targets and changes no implementation choice."""
        sched = FaultSchedule.of(
            FaultSpec("ssd_io_error", target=0, start=5.0, duration=0.1, rate=1.0),
            FaultSpec("server_stall", target=1, start=5.0, duration=0.01),
        )
        m = Machine(small_testbed(), faults=sched)
        assert not m.reference
        assert m.nodes[0].ssd.injector is m.nodes[0].nvmm.injector is m.faults
        assert m.pfs.servers[1].injector is m.faults
        assert all(node.ssd.injector is None for node in m.nodes[1:])
        assert all(s.injector is None for s in m.pfs.servers if s.server_id != 1)
        assert all(q.inline_grants for q in queues(m))
        assert m.pfs_client(0)._bulk and m.flush is Flush

    def test_explicit_dataplane_argument(self):
        """``reference=True`` is the only way left to the chunked plane."""
        m = Machine(small_testbed(), reference=True)
        assert m.reference
        assert not any(q.inline_grants for q in queues(m))
        assert not m.pfs_client(0)._bulk and m.flush is not Flush


class TestEquivalence:
    @pytest.mark.parametrize("mode", ["enabled", "disabled"])
    def test_bulk_matches_chunked_excluding_events(self, mode):
        spec = ExperimentSpec("ior", cache_mode=mode, **TINY)
        slow = run_experiment(spec, reference=True)
        fast = run_experiment(spec)
        a, b = slow.to_dict(), fast.to_dict()
        slow_events, fast_events = a.pop("events"), b.pop("events")
        assert a == b
        assert fast_events < slow_events


def _run_faulted_sync(reference):
    """One faulted flush on the requested stack; full state snapshot."""
    # rate=1.0 inside [0, 10ms): the sync thread's first SSD read-back
    # faults, retries with backoff, and succeeds once the window closes.
    sched = FaultSchedule.of(
        FaultSpec("ssd_io_error", target=0, start=0.0, duration=0.01, rate=1.0)
    )
    machine = Machine(small_testbed(), faults=sched, reference=reference)
    world = MPIWorld(machine)
    policy = CachePolicy(
        enabled=True,
        coherent=False,
        flush_mode="flush_immediate",
        discard_on_close=True,
        cache_path="/scratch",
        sync_chunk=32 * KiB,
    )
    pfs_file = machine.pfs.create("/g/target")
    state = CacheState(machine, 0, pfs_file, policy, world.comm)

    def proc():
        greq = yield state.write_through_cache(0, 256 * KiB, None)
        try:
            yield from greq.wait()
        except SyncFailedError:
            return "failed"
        return "ok"

    outcome = machine.sim.run(until=machine.sim.process(proc()))
    thread = state.sync_thread
    return {
        "outcome": outcome,
        "now": machine.sim.now,
        "events": machine.sim.events_fired,
        "retries": thread.retries,
        "requeues": thread.requeues,
        "failures": thread.failures,
        "bytes_flushed": machine.io_stats["bytes_flushed"],
        "requests_done": thread.requests_done,
        "busy_time": thread.busy_time,
        "journal_synced": list(state.journal.synced),
        "persisted": list(pfs_file.persisted),
        "cache_stats": dict(machine.cache_stats),
    }


class TestFaultedSyncIdentical:
    def test_bulk_request_under_faults_matches_chunked(self):
        """Under an injected read error the production sync thread stays on
        its flat chain — the error fails the read-back event where the
        generator's read raises: retry counts, requeue counts, journal marks
        and every simulated quantity come out identical to the reference
        stack's; only the diagnostic event count may (and does) drop.
        """
        asked_bulk = _run_faulted_sync(False)
        chunked = _run_faulted_sync(True)
        bulk_events = asked_bulk.pop("events")
        chunked_events = chunked.pop("events")
        assert asked_bulk == chunked
        assert bulk_events < chunked_events
        # The fault really did land mid-window (otherwise this test is vacuous).
        assert chunked["retries"] > 0
        assert chunked["outcome"] == "ok"
        assert chunked["journal_synced"] == [(0, 256 * KiB)]
