"""Shared fixtures: small simulated clusters and SPMD helpers."""

from __future__ import annotations

import contextlib
import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.config import small_testbed
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.payload import payload_bytes, payload_key
from repro.reference import HeapSimulator
from repro.romio import ext2ph
from repro.romio.adio import BeeGFSDriver, UFSDriver
from repro.romio.file import MPIIOLayer
from repro.sim.core import Event, Simulator
from repro.workloads import phases

#: Both event-loop engines by name, for tests that build one directly (the
#: reference stack's heapq engine and production's slotted one).
ENGINES = {"heapq": HeapSimulator, "slotted": Simulator}


def load_tool(name: str):
    """``tools/<name>.py`` as a module (``tools/`` is a script directory)."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quiet_faults(config) -> FaultSchedule:
    """A schedule whose windows never open, aimed at every node's cache
    device and every data server: every fault hook is armed and none fires,
    so a machine under it must equal the fault-free one."""
    far = {"start": 1e9, "duration": 1.0}
    return FaultSchedule(
        faults=(
            *(FaultSpec("ssd_io_error", target=n, **far) for n in range(config.num_nodes)),
            *(
                FaultSpec("server_stall", target=s, **far)
                for s in range(config.pfs.num_data_servers)
            ),
        )
    )


@contextlib.contextmanager
def walking():
    """Refuse every collective write its clock, as ``romio_cb_write=automatic``
    does: ``ext2ph.call_paths`` (and the name ``workloads.phases`` imported)
    answers False, so on the production stack every rank is a process of
    its own that walks each call round by round — the live walk the clock
    and the rank classes are tested against."""
    with mock.patch.object(ext2ph, "call_paths", lambda *a: False), mock.patch.object(
        phases, "call_paths", lambda *a: False
    ):
        yield


def grant_events(machine) -> None:
    """Put every device and data server of a production ``machine`` on grant
    events (no inline grants: every grant an event, as on the reference
    stack's engine), its engine, fabric and flat chains left as they are."""
    for node in machine.nodes:
        node.ssd.queue.inline_grants = node.nvmm.queue.inline_grants = False
    for server in machine.pfs.servers:
        server.workers.inline_grants = server.target.queue.inline_grants = False


def flat_read(sim, reader, *where) -> Event:
    """``reader.read_flat(*where, on_done, done)`` (a local file system, an
    NVMM log or a cache journal) as an Event a generator can wait on: it
    fires with ``reader.gather(*where)``, or fails with the read's fault;
    interrupted, its waiter abandons the read."""
    done = Event(sim, name="read")

    def served(error):
        if error is None:
            done._fire_inline(reader.gather(*where))
        else:
            done._fire_inline(error, ok=False)

    reader.read_flat(*where, served, done)
    return done


def sync_write(client, f, offset: int, nbytes: int, **kwargs) -> Event:
    """``client.write_sync_flat`` as an Event a generator can wait on: it
    fires when the last RPC is served, or fails with the watchdog's
    timeout; interrupted, its waiter abandons the write."""
    done = Event(client.sim, name="write-sync")

    def written(error):
        done._fire_inline(error, ok=error is None)

    client.write_sync_flat(f, offset, nbytes, written, done, **kwargs)
    return done


class PayloadBytes:
    """An ADIO driver whose writes carry the file's payload bytes: every
    ``write_contig`` handed no data (the collective write's model exchange
    hands none) writes :func:`~repro.payload.payload_bytes` of its range,
    and data sieving merges them into its read-modify-write (``payload``).
    The written file can then be compared byte for byte with the payload
    function (:func:`expected_image`, ``verify_files``)."""

    payload = True

    def write_contig(self, fd, rank, offset, nbytes, data=None):
        if data is None and nbytes > 0:
            data = payload_bytes(fd.payload_key, offset, nbytes)
        return super().write_contig(fd, rank, offset, nbytes, data)


#: The production drivers with payload bytes, by name.
PAYLOAD_DRIVERS = {
    cls.name: type(f"Payload{cls.__name__}", (PayloadBytes, cls), {})()
    for cls in (UFSDriver, BeeGFSDriver)
}


def payload_layer(machine, comm, driver: str = "beegfs") -> MPIIOLayer:
    """ROMIO over ``comm`` whose writes carry payload bytes (:class:`PayloadBytes`)."""
    layer = MPIIOLayer(machine, comm, driver=driver)
    layer.driver = PAYLOAD_DRIVERS[driver]
    return layer


@pytest.fixture
def machine():
    """A 4-node × 2-rank cluster with exact (unbatched) flush simulation."""
    return Machine(small_testbed())


@pytest.fixture
def world(machine):
    return MPIWorld(machine)


@pytest.fixture
def romio(machine, world):
    """ROMIO over the small machine whose writes carry payload bytes, so a
    written file can be checked byte for byte (:class:`PayloadBytes`)."""
    return payload_layer(machine, world.comm)


@pytest.fixture
def spmd(machine, world):
    """Run a rank body across all ranks and return per-rank results."""

    def run(body):
        return world.run(body)

    return run


def make_cluster(num_nodes=4, procs_per_node=2, driver="beegfs", **overrides):
    """Non-fixture helper for tests needing custom cluster shapes (its
    ROMIO writes payload bytes, as the ``romio`` fixture's)."""
    machine = Machine(small_testbed(num_nodes, procs_per_node, **overrides))
    world = MPIWorld(machine)
    return machine, world, payload_layer(machine, world.comm, driver)


def file_payload(machine, path: str, offset: int, nbytes: int) -> np.ndarray:
    """The bytes ``path`` holds at ``[offset, offset + nbytes)`` once written
    on ``machine`` (the payload function of its seed and the path)."""
    return payload_bytes(payload_key(machine.config.seed, path), offset, nbytes)


def expected_image(machine, path: str, accesses, size: int) -> np.ndarray:
    """A flat oracle of ``path``: ``size`` zero bytes with the payload
    written over every extent of ``accesses``."""
    img = np.zeros(size, dtype=np.uint8)
    for acc in accesses:
        for off, length in zip(acc.offsets.tolist(), acc.lengths.tolist()):
            img[off : off + length] = file_payload(machine, path, off, length)
    return img
