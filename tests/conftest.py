"""Shared fixtures: small simulated clusters and SPMD helpers."""

from __future__ import annotations

import pytest

from repro.config import small_testbed
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio.file import MPIIOLayer
from repro.sim.core import Simulator, SlottedSimulator

#: Both event-loop engines by name, for tests that build one directly (the
#: reference stack's heapq engine and production's slotted one).
ENGINES = {"heapq": Simulator, "slotted": SlottedSimulator}


def quiet_faults(config) -> FaultSchedule:
    """A schedule whose windows never open, aimed at every node's cache
    device and every data server: the injector scopes all of them onto their
    chunked bodies (``fast_path = False``) and keeps every rank a process
    that walks round by round, so a *production* machine under it is the
    path every faulted run takes — and must equal the fault-free one."""
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


@pytest.fixture
def machine():
    """A 4-node × 2-rank cluster with exact (unbatched) flush simulation."""
    return Machine(small_testbed())


@pytest.fixture
def world(machine):
    return MPIWorld(machine)


@pytest.fixture
def romio(machine, world):
    """Flow-fidelity ROMIO over the small machine (data verification works)."""
    return MPIIOLayer(machine, world.comm, driver="beegfs", exchange_mode="flow")


@pytest.fixture
def spmd(machine, world):
    """Run a rank body across all ranks and return per-rank results."""

    def run(body):
        return world.run(body)

    return run


def make_cluster(num_nodes=4, procs_per_node=2, driver="beegfs", exchange="flow", **overrides):
    """Non-fixture helper for tests needing custom cluster shapes."""
    machine = Machine(small_testbed(num_nodes, procs_per_node, **overrides))
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm, driver=driver, exchange_mode=exchange)
    return machine, world, layer
