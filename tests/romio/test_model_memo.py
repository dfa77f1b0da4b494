"""The process-wide memo of two-phase model plans (``ext2ph.model_memo``).

A plan — what each aggregator receives per round and how long each round's
exchange lasts — is a function of the *shape* of a collective call: files,
machines and fleet jobs that repeat a shape read one set of arrays, however
their ranks' nodes are numbered.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.access import AccessTable
from repro.config import small_testbed
from repro.experiments.runner import CACHE_MODES, ExperimentSpec, run_experiment
from repro.fleet.view import JobView
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio import ext2ph
from repro.romio.file import MPIIOLayer
from repro.sim.profile import SimProfiler
from repro.units import KiB, MiB

HINTS = {
    "cb_nodes": "2",
    "cb_buffer_size": "16k",
    "romio_cb_write": "enable",
    "striping_unit": "8k",
    "striping_factor": "2",
}
PLAN_FIELDS = ("recv_bytes", "recv_pieces", "shuffle_durations")


@pytest.fixture(autouse=True)
def empty_memo():
    ext2ph.model_memo.clear()
    yield
    ext2ph.model_memo.clear()


def strided_table(nprocs, block=4 * KiB, reps=4):
    starts = np.arange(nprocs)[:, None] * block
    offs = starts + np.arange(reps)[None, :] * nprocs * block
    return AccessTable(
        offs.ravel(), np.full(nprocs * reps, block), np.arange(nprocs + 1) * reps
    )


def write_once(machine, hints=HINTS, path="/g/t", table=None):
    """One collective write on ``machine`` (a Machine or a JobView); returns
    the call's state and the profiler counters so far."""
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm)
    table = table if table is not None else strided_table(world.comm.size)

    def body(ctx):
        fh = yield from layer.open(ctx.rank, path, hints)
        yield from fh.write_all(table.rank(ctx.rank))
        yield from fh.close()

    world.run(body)
    return layer._open_slots[path][0]._calls[0], machine.sim.profiler.counters


def machine_of(nodes=4, ppn=2, **overrides):
    return Machine(small_testbed(nodes, ppn, **overrides), profiler=SimProfiler())


def assert_same_plan(a, b, identical):
    for name in PLAN_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (getattr(a, name) is getattr(b, name)) == identical, name
    for x, y in zip(a.merged_cov, b.merged_cov):
        assert np.array_equal(x, y)


class TestSharing:
    def test_placements_of_one_shape_share_one_plan(self):
        """Two fleet jobs of one shape on different physical nodes (one of
        them numbered backwards) and a stand-alone machine of that size."""
        shared = machine_of(nodes=4)
        first, counters = write_once(JobView(shared, 0, (0, 1)), path="/g/a")
        assert (counters["ext2ph.model_cache_miss"], len(ext2ph.model_memo)) == (1, 1)
        second, counters = write_once(JobView(shared, 1, (3, 2)), path="/g/b")
        assert counters["ext2ph.model_cache_hit"] == 1
        alone, counters = write_once(machine_of(nodes=2))
        assert counters["ext2ph.model_cache_hit"] == 1
        assert "ext2ph.model_cache_miss" not in counters
        assert len(ext2ph.model_memo) == 1
        assert_same_plan(first, second, identical=True)
        assert_same_plan(first, alone, identical=True)
        # ... and the shared plan is the one each would have derived alone.
        ext2ph.model_memo.clear()
        cold, counters = write_once(JobView(machine_of(nodes=4), 1, (3, 2)))
        assert counters["ext2ph.model_cache_miss"] == 1
        assert_same_plan(first, cold, identical=False)

    def test_files_of_one_run_share_one_plan_whatever_their_offset(self):
        machine = machine_of()
        nprocs = machine.config.num_ranks
        first, _ = write_once(machine, path="/g/a")
        table = strided_table(nprocs)
        shifted = AccessTable(table.offsets + 64 * KiB, table.lengths, table.rank_ptr)
        second, counters = write_once(machine, path="/g/b", table=shifted)
        assert counters["ext2ph.model_cache_hit"] == 1
        assert second.recv_bytes is first.recv_bytes
        assert (second.merged_cov[0] - first.merged_cov[0]).tolist() == [64 * KiB]

    def test_placement_that_groups_ranks_differently_misses(self):
        write_once(machine_of(nodes=4, ppn=2))
        _, counters = write_once(machine_of(nodes=2, ppn=4))
        assert counters["ext2ph.model_cache_miss"] == 1
        assert len(ext2ph.model_memo) == 2


def nonzero_schedule(call):
    """The writer schedule as the clock used to derive it on every call."""
    writers = [{} for _ in range(call.ntimes)]
    rounds, aggs = np.nonzero(call.recv_bytes.T)
    for r, i in zip(rounds.tolist(), aggs.tolist()):
        writers[r][i] = (int(call.recv_pieces[i, r]), int(call.recv_bytes[i, r]))
    return writers, {i: int(n) for i, n in enumerate((call.recv_bytes > 0).sum(axis=1)) if n}


class TestWriterSchedule:
    def test_calls_that_share_a_plan_count_down_their_own_rounds(self, monkeypatch):
        clocks = []
        start = ext2ph.CallClock._start

        def noting(clock, event):
            clocks.append(clock)
            return start(clock, event)

        monkeypatch.setattr(ext2ph.CallClock, "_start", noting)
        machine = machine_of()
        first, _ = write_once(machine, path="/g/a")
        second, counters = write_once(machine, path="/g/b")
        assert counters["ext2ph.model_cache_hit"] == 1
        assert second.writers is first.writers
        assert second.rounds_left is first.rounds_left
        assert len(clocks) == 2 and clocks[0].left is not clocks[1].left
        # each clock counted its own copy down to nothing; the plan's is intact
        assert all(set(clock.left.values()) == {0} for clock in clocks)
        assert first.rounds_left and all(n > 0 for n in first.rounds_left.values())

    def test_a_hits_schedule_is_the_nonzero_derivation(self):
        machine = machine_of()
        write_once(machine, path="/g/a")
        hit, counters = write_once(machine, path="/g/b")
        assert counters["ext2ph.model_cache_hit"] == 1
        writers, rounds_left = nonzero_schedule(hit)
        assert list(hit.writers) == writers and hit.rounds_left == rounds_left
        assert sum(len(w) for w in writers) == int((hit.recv_bytes > 0).sum()) > 0


def slower_network(cfg_network):
    return replace(cfg_network, alpha_collective=cfg_network.alpha_collective * 2)


@pytest.mark.parametrize(
    "hints, overrides",
    [
        ({**HINTS, "cb_buffer_size": "8k"}, {}),
        ({**HINTS, "cb_nodes": "4"}, {}),  # aggregator list (and domains)
        ({**HINTS, "striping_unit": "48k"}, {}),  # 96k + 32k domains, not 64k + 64k
        (HINTS, {"network": slower_network(small_testbed().network)}),
    ],
    ids=["cb", "aggregators", "domains", "cost"],
)
def test_a_differing_input_misses(hints, overrides):
    base, _ = write_once(machine_of())
    other, counters = write_once(machine_of(**overrides), hints=hints)
    assert counters["ext2ph.model_cache_miss"] == 1
    assert "ext2ph.model_cache_hit" not in counters
    assert len(ext2ph.model_memo) == 2
    assert other.recv_bytes is not base.recv_bytes


class TestBounds:
    def test_shared_arrays_are_read_only(self):
        call, _ = write_once(machine_of())
        for name in PLAN_FIELDS:
            arr = getattr(call, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_the_byte_budget_evicts_the_oldest_plans(self):
        memo = ext2ph._ModelMemo(budget=1000)
        plans = {k: (np.zeros(40), np.zeros(10)) for k in "abcd"}  # 400 bytes each
        for key in "ab":
            memo.put((key,), plans[key])
        assert (len(memo), memo.held) == (2, 800)
        memo.put(("c",), plans["c"])
        assert memo.get(("a",)) is None  # oldest out
        assert memo.get(("b",)) is plans["b"] and memo.get(("c",)) is plans["c"]
        assert (len(memo), memo.held) == (2, 800)
        memo.put(("big",), (np.zeros(200),))  # 1600 bytes: over the whole budget
        assert memo.get(("big",)) is None and len(memo) == 2
        memo.put(("d",), (np.zeros(100),))  # 800 bytes: evicts both
        assert (len(memo), memo.held) == (1, 800)
        memo.clear()
        assert (len(memo), memo.held) == (0, 0)

    def test_patterns_over_the_extent_cap_skip_the_memo(self):
        reps = ext2ph._MODEL_MEMO_EXTENT_CAP + 1
        machine = machine_of()
        table = strided_table(machine.config.num_ranks, block=512, reps=reps)
        call, counters = write_once(machine, table=table)
        assert len(ext2ph.model_memo) == 0
        assert not any(k.startswith("ext2ph.model_cache") for k in counters)
        assert call.prepared and call.recv_bytes.flags.writeable

    def test_a_descriptor_over_the_extent_cap_enters_the_memo(self):
        """The cap bounds what fingerprinting a CSR table costs; a descriptor
        fingerprints in O(ranks), and plans what its flattened twin plans."""
        reps = ext2ph._MODEL_MEMO_EXTENT_CAP + 1
        nprocs = machine_of().config.num_ranks
        flat, _ = write_once(machine_of(), table=strided_table(nprocs, 512, reps))
        table = AccessTable.strided(np.arange(nprocs) * 512, ((reps, nprocs * 512),), 512)
        first, counters = write_once(machine_of(), table=table)
        assert counters["ext2ph.model_cache_miss"] == 1 and len(ext2ph.model_memo) == 1
        again, counters = write_once(machine_of(), table=table)
        assert counters["ext2ph.model_cache_hit"] == 1
        assert_same_plan(first, again, identical=True)
        assert_same_plan(first, flat, identical=False)
        assert "offsets" not in vars(table)

    def test_coll_perf_over_three_modes_and_two_files_is_one_plan(self):
        """1,024 extents a rank: never entered the memo while it was CSR."""
        profiler = SimProfiler()
        for mode in CACHE_MODES:
            spec = ExperimentSpec("coll_perf", 64, 16 * MiB, mode, num_files=2, scale=0.03125)
            run_experiment(spec, profiler=profiler)
        counters = profiler.counters
        assert counters["ext2ph.model_cache_miss"] == 1
        assert counters["ext2ph.model_cache_hit"] == 5
        assert len(ext2ph.model_memo) == 1
