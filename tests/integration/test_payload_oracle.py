"""End-to-end oracle: noncontiguous file views through the whole stack.

Hypothesis draws the three noncontiguous patterns of Thakur et al.
(arXiv:cs/0310029) as ``AccessTable.strided`` descriptors — a strided
vector per rank, a nested vector (each rank a 3-D subarray), and ranks
interleaved block by block — at any block length, aligned or not, with or
without holes, and writes them with the cache off, on the extent cache and
on the NVMM log; one fixed pattern also goes through a mid-run aggregator
crash and its replay, on either cache.  The write is the one every harness
runs — the model exchange on its clock (``romio_cb_write=enable``) — under
the tests' driver, which hands ``write_contig`` the payload bytes of each
range it writes (``tests.conftest.PayloadBytes``).  Each global file must
equal a flat ``bytearray`` filled from the payload function over the
workload's coverage, and ``verify_files`` must find nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import AccessTable
from repro.chaos.invariants import verify_files
from repro.config import small_testbed
from repro.faults import FaultSchedule, FaultSpec
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.payload import payload_bytes, payload_key
from repro.sim.core import Interrupt
from repro.workloads.base import IOStep, Workload
from repro.workloads.phases import multi_phase_body
from tests.conftest import payload_layer

NPROCS = 8  # small_testbed: 4 nodes x 2 ranks
PREFIX = "/g/oracle_"

CACHES = {
    "off": {},
    "extent": {"e10_cache": "enable", "e10_cache_kind": "extent"},
    "nvmm": {"e10_cache": "enable", "e10_cache_kind": "nvmm"},
}


def strided_vector(length, gap, count):
    """Each rank its own region: ``count`` blocks, a hole after each."""
    stride = length + gap
    return AccessTable.strided(np.arange(NPROCS) * count * stride, ((count, stride),), length)


def interleaved(length, gap, count):
    """Rank r's k-th block right after every lower rank's k-th block."""
    stride = NPROCS * length + gap
    return AccessTable.strided(np.arange(NPROCS) * length, ((count, stride),), length)


def nested_vector(length, gap, bx, by):
    """A 2x2x2 grid of ranks over a ``2bx x 2by`` array of rows of
    ``2 length + gap`` bytes: each rank a subarray (a vector of vectors)."""
    row = 2 * length + gap
    ny = 2 * by
    r = np.arange(NPROCS)
    i, j, k = r // 4, (r // 2) % 2, r % 2
    bases = (i * bx * ny + j * by) * row + k * length
    return AccessTable.strided(bases, ((bx, ny * row), (by, row)), length)


@st.composite
def views(draw):
    length, gap = draw(st.integers(1, 1536)), draw(st.integers(0, 1024))
    kind = draw(st.sampled_from(["strided", "interleaved", "nested"]))
    if kind == "nested":
        return nested_vector(length, gap, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    maker = strided_vector if kind == "strided" else interleaved
    return maker(length, gap, draw(st.integers(1, 4)))


def workload_of(table):
    return Workload("oracle", NPROCS, (IOStep.collective(lambda: table),), 0, 0)


def run(workload, hints, num_files=1, faults=None):
    """``workload`` written to ``num_files`` files; a crashed job is
    followed by a recovery job that re-opens every file (the replay)."""
    machine = Machine(small_testbed(), faults=faults)
    world = MPIWorld(machine)
    layer = payload_layer(machine, world.comm)
    body = multi_phase_body(
        layer,
        workload,
        hints,
        num_files=num_files,
        compute_delay=0.05,
        deferred_close="e10_cache" in hints,
        file_prefix=PREFIX,
    )
    try:
        world.run(body)
    except Interrupt:
        assert faults is not None
        rec_world = MPIWorld(machine)
        rec_layer = payload_layer(machine, rec_world.comm)

        def recovery(ctx):
            for k in range(num_files):
                fh = yield from rec_layer.open(ctx.rank, f"{PREFIX}{k}", {})
                yield from fh.close()

        rec_world.run(recovery)
        assert machine.recovery.stats()["bytes_replayed"] > 0
    calls = [call for fds in layer._open_slots.values() for fd in fds for call in fd._calls]
    assert calls and all(call.park for call in calls)  # every write ran on its clock
    return machine


def assert_whole(machine, workload, num_files=1):
    """``verify_files`` clean, and each file == the flat oracle."""
    paths = [f"{PREFIX}{k}" for k in range(num_files)]
    seed = machine.config.seed
    expected = dict.fromkeys(paths, workload.coverage)
    assert verify_files(machine.pfs, expected, lambda path: payload_key(seed, path)) == []
    starts, ends = workload.coverage
    for path in paths:
        key = payload_key(seed, path)
        oracle = bytearray(int(ends[-1]))
        for s, e in zip(starts.tolist(), ends.tolist()):
            oracle[s:e] = payload_bytes(key, s, e - s).tobytes()
        assert machine.pfs.lookup(path).data_image().tobytes() == bytes(oracle)


@pytest.mark.parametrize("cache", sorted(CACHES))
@settings(max_examples=15, deadline=None)
@given(views(), st.sampled_from(["1", "2", "4"]), st.sampled_from(["4k", "16k"]))
def test_every_pattern_lands_whole(cache, table, cb_nodes, cb_buffer):
    hints = {
        "cb_nodes": cb_nodes,
        "cb_buffer_size": cb_buffer,
        "romio_cb_write": "enable",
        "striping_unit": "8k",
        "ind_wr_buffer_size": "4k",
        **CACHES[cache],
    }
    workload = workload_of(table)
    assert_whole(run(workload, hints), workload)


@pytest.mark.parametrize("cache", ["extent", "nvmm"])
def test_a_crash_mid_run_replays_whole(cache):
    """The job dies while the last file's cached extents are in flight; the
    recovery job's replay must leave every file whole."""
    hints = {
        "cb_nodes": "4",
        "cb_buffer_size": "16k",
        "romio_cb_write": "enable",
        "e10_cache_flush_flag": "flush_onclose",
        "ind_wr_buffer_size": "8k",
        **CACHES[cache],
    }
    crash = FaultSchedule.of(FaultSpec("aggregator_crash", on_event="write_done:1", delay=2e-3))
    workload = workload_of(nested_vector(1000, 48, 3, 2))
    machine = run(workload, hints, num_files=2, faults=crash)
    assert machine.faults.injected == 1
    assert_whole(machine, workload, num_files=2)
