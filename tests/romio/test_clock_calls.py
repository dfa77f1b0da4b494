"""A collective call on its clock: host cost per arrival and per call as
exact numbers.

Every process arrives at a call's offset exchange once; the clock then plans
the call, pins each aggregator's buffer, runs the rounds and laps and wakes
everyone.  The gate runs a fixed load under cProfile (no ``SimProfiler``):
64 nodes of 2 ranks, one aggregator per node and the other 64 ranks one
follower class; each call writes the next 64 KiB stripe, so one aggregator
writes one round, and no call repeats another's region (each partitions
and plans afresh).  Two differences isolate the two costs: more calls on one file
give the calls per collective call, and 32 aggregators instead of 64 the
calls per arrival (an aggregator's part of a call: its arrival, its wake,
its pin and unpin and its laps).  Opening, closing and the first call's
partition and plan cancel out of both.  The events fired and the
``ext2ph`` counters are pinned beside them, so a cheaper run cannot come
from fewer events, fewer writers or more memo hits.
"""

import cProfile
import pstats

import numpy as np

from repro.access import AccessTable
from repro.config import small_testbed
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio import ext2ph
from repro.romio.file import MPIIOLayer
from repro.sim.profile import SimProfiler
from repro.workloads.base import IOStep, Workload
from repro.workloads.phases import multi_phase_body

NODES, PPN = 64, 2
STRIPE = 64 * 1024
BLOCK = STRIPE // (NODES * PPN)  # bytes per rank and call: the ranks cover one stripe
HINTS = {
    "romio_cb_write": "enable",
    "cb_buffer_size": "64k",
    "striping_unit": "64k",
    "striping_factor": "2",
}
FEW, MANY = 2, 6  # collective calls on the one file

#: cProfile calls per collective call on 64 aggregators (65 arrivals), and
#: per arrival, the waiter, its wake, its domain, the pins and the laps
#: included: 2,059 and 25.0 (3,417 and 46.0 when an arrival hopped through
#: ``Communicator.timed``, ``Profiler.mark``, ``MPIFileHandle.prof`` and
#: ``_check_open``, the pins through ``Communicator.node_of``, the laps paid
#: a ``dict.get`` per phase, and the partition's bounds, its round count and
#: the plan's memo key took builtins and generators domain by domain).
CALLS_PER_CALL = 2_059
CALLS_PER_ARRIVAL = 25.0

#: (events fired, park_live, park_single, model_cache_hit, model_cache_miss)
#: of the 64-aggregator load with MANY calls: every plan a miss.
COUNTS = (187, 6, 762, 0, 6)


def load(aggregators: int, calls: int, profiler=None):
    """One file of ``calls`` collective writes, each to the next stripe;
    returns the machine and the body to run."""
    tables = [
        AccessTable(
            np.arange(NODES * PPN, dtype=np.int64) * BLOCK + call * STRIPE,
            np.full(NODES * PPN, BLOCK, dtype=np.int64),
            np.arange(NODES * PPN + 1, dtype=np.int64),
        )
        for call in range(calls)
    ]
    steps = tuple(IOStep.collective(lambda t=t: t) for t in tables)
    workload = Workload("clock", NODES * PPN, steps, bytes_per_rank=0, file_size=0)
    machine = Machine(small_testbed(NODES, PPN), profiler=profiler)
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm, driver="beegfs")
    hints = {**HINTS, "cb_nodes": str(aggregators)}
    body = multi_phase_body(layer, workload, hints, num_files=1, file_prefix="/g/clock")
    return machine, world, body


def profiled_calls(aggregators: int, calls: int) -> int:
    ext2ph.model_memo.clear()  # each run plans its first call afresh
    machine, world, body = load(aggregators, calls)
    profile = cProfile.Profile()
    profile.enable()
    world.run(body)
    profile.disable()
    assert len(world.classes) == aggregators + 1
    return pstats.Stats(profile).total_calls


def test_a_call_on_its_clock_stays_within_its_call_budget():
    """Calls per collective call and per arrival, gated; events and the
    clock's counters pinned."""
    profiled_calls(64, FEW)  # pays the one-off costs of a first run
    per_call = {
        aggs: (profiled_calls(aggs, MANY) - profiled_calls(aggs, FEW)) / (MANY - FEW)
        for aggs in (32, 64)
    }
    per_arrival = (per_call[64] - per_call[32]) / (64 - 32)
    ext2ph.model_memo.clear()
    profiler = SimProfiler()
    machine, world, body = load(64, MANY, profiler)
    world.run(body)
    counters = profiler.counters
    counts = (machine.sim.events_fired,) + tuple(
        counters.get(f"ext2ph.{name}", 0)
        for name in ("park_live", "park_single", "model_cache_hit", "model_cache_miss")
    )
    assert counts == COUNTS
    assert per_arrival <= CALLS_PER_ARRIVAL * 1.05, f"{per_arrival:.1f} per arrival"
    assert per_call[64] <= CALLS_PER_CALL * 1.05, f"{per_call[64]:,.1f} calls per call"
