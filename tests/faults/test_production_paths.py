"""No generator twin runs on the production stack, faults or not.

A fault schedule only arms faults; ``machine.reference`` alone picks the
implementation.  Every point of the fault matrix of
``tests/faults/test_stack_identity.py`` (3 benchmarks x 8 scenarios) runs
here on the production stack with each reference-only twin made to raise:
the generator sync write and server RPC, the generator read-backs, and the
round-by-round model walk.  Each point must still equal the reference
stack's unpatched run field for field (only ``events`` may differ), and its
faulted job must cross collective writes on their clock.
"""

from __future__ import annotations

import pytest

from repro.cache.nvmlog import NVMMWriteLog
from repro.experiments.faultsweep import run_fault_experiment
from repro.faults.recovery import CacheJournal
from repro.localfs.ext4 import LocalFileSystem
from repro.machine import Machine
from repro.pfs.client import PFSClient
from repro.pfs.server import DataServer
from repro.romio import ext2ph
from repro.sim.profile import SimProfiler
from tests.faults.test_stack_identity import MATRIX, comparable

#: What only ``Machine(reference=True)`` may run.
TWINS = (
    (PFSClient, "write_sync"),
    (DataServer, "serve_write"),
    (CacheJournal, "read_back"),
    (LocalFileSystem, "read"),
    (NVMMWriteLog, "read"),
    (ext2ph, "_rounds_model"),
)


def refused(name: str):
    def twin(*args, **kwargs):
        raise AssertionError(f"{name} ran on the production stack")

    return twin


@pytest.mark.parametrize("spec", MATRIX, ids=lambda s: f"{s.benchmark}-{s.scenario}")
def test_production_runs_no_generator_twin(spec, monkeypatch):
    reference = comparable(run_fault_experiment(spec, reference=True))
    profilers = []
    init = Machine.__init__

    def profiled(machine, config, **kwargs):
        profilers.append(kwargs.setdefault("profiler", SimProfiler()))
        init(machine, config, **kwargs)

    with monkeypatch.context() as patch:
        for owner, name in TWINS:
            patch.setattr(owner, name, refused(name))
        patch.setattr(Machine, "__init__", profiled)
        production = run_fault_experiment(spec)
    assert comparable(production) == reference
    # The faulted job's machine is the last one built (its recovery job
    # reuses it); every point writes, so its calls ran on their clock.
    assert profilers[-1].counters["ext2ph.park_single"] > 0
