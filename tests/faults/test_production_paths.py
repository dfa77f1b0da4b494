"""No reference-stack code runs on the production stack, faults or not.

A fault schedule only arms faults; ``Machine(reference=True)`` alone builds
the reference stack, whose own code is :mod:`repro.reference`.  Every point
of the fault matrix of ``tests/faults/test_stack_identity.py`` (3 benchmarks
x 8 scenarios) runs here on the production stack with everything in
:mod:`repro.reference` made to raise — the heap engine and its watchdog
race (``AnyOf``), the naive fabric and its filling loop, the generator
flush loop and its batch step, read-backs, sync write, sync RPC, server RPC
and absorb — and the round-by-round model walk.
Each point must still equal the reference stack's unpatched run field for
field (only ``events`` may differ), and its faulted job must cross
collective writes on their clock.
"""

from __future__ import annotations

import pytest

from repro import reference
from repro.experiments.faultsweep import run_fault_experiment
from repro.machine import Machine
from repro.romio import ext2ph
from repro.sim.profile import SimProfiler
from tests.faults.test_stack_identity import MATRIX, comparable

#: What only ``Machine(reference=True)`` may run.
TWINS = (
    (reference, "HeapSimulator"),
    (reference, "AnyOf"),
    (reference, "NaiveFabric"),
    (reference, "fill_rates"),
    (reference, "_Link"),
    (reference, "_Flow"),
    (reference, "flush"),
    (reference, "flush_batch"),
    (reference, "read_back"),
    (reference, "read_local"),
    (reference, "read_log"),
    (reference, "write_sync"),
    (reference, "_sync_rpc"),
    (reference, "serve_write"),
    (reference, "absorb"),
    (ext2ph, "_rounds_model"),
)


def refused(name: str):
    def twin(*args, **kwargs):
        raise AssertionError(f"{name} ran on the production stack")

    return twin


def test_the_twins_are_everything_the_reference_module_defines():
    defined = {
        name
        for name, value in vars(reference).items()
        if getattr(value, "__module__", None) == reference.__name__
    }
    assert defined == {name for owner, name in TWINS if owner is reference}


@pytest.mark.parametrize("spec", MATRIX, ids=lambda s: f"{s.benchmark}-{s.scenario}")
def test_production_runs_no_generator_twin(spec, monkeypatch):
    reference_run = comparable(run_fault_experiment(spec, reference=True))
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
    assert comparable(production) == reference_run
    # The faulted job's machine is the last one built (its recovery job
    # reuses it); every point writes, so its calls ran on their clock.
    assert profilers[-1].counters["ext2ph.park_single"] > 0
