"""Correctness of the two-phase collective write.

Every test writes real payload bytes through the full stack (the model
exchange under the tests' payload driver, ``tests.conftest.PayloadBytes``) and verifies
the final global-file image byte-for-byte against an independently computed
expectation: zeros, with the payload function over every rank's extents.
"""

import numpy as np
import pytest

from repro.access import RankAccess
from repro.romio.aggregation import FileDomain
from repro.romio.ext2ph import _round_writes, is_interleaved
from repro.romio.fd import CollectiveCallState
from repro.units import KiB
from tests.conftest import expected_image, file_payload, make_cluster


def run_write_all(patterns, hints, num_nodes=4, procs_per_node=2, driver="beegfs"):
    machine, world, layer = make_cluster(num_nodes, procs_per_node, driver=driver)

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/t", hints)
        n = yield from fh.write_all(patterns[ctx.rank])
        yield from fh.close()
        return n

    world.run(body)
    return machine, machine.pfs.lookup("/g/t")


def strided_patterns(nprocs, block=4 * KiB, reps=4):
    out = []
    for r in range(nprocs):
        offs = np.array([r * block + k * nprocs * block for k in range(reps)])
        out.append(RankAccess(offs, np.full(reps, block)))
    return out


def test_round_writes_clip():
    """A round's write list: the merged coverage clipped to the round's
    window of the aggregator's domain."""
    call = CollectiveCallState(index=0)
    call.merged_cov = (np.array([0, 20, 40], dtype=np.int64), np.array([10, 30, 50], dtype=np.int64))
    assert _round_writes(call, FileDomain(0, 5, 45), 0, 40) == [(5, 10), (20, 30), (40, 45)]
    assert _round_writes(call, FileDomain(0, 0, 45), 1, 10) == []  # [10, 20)
    assert _round_writes(call, FileDomain(0, 100, 200), 0, 100) == []
    assert _round_writes(call, FileDomain(0, 0, 45), 4, 10) == [(40, 45)]  # cut at the domain's end


class TestInterleaveDetection:
    def test_disjoint_ordered(self):
        assert not is_interleaved([(0, 9), (10, 19), (20, 29)])

    def test_overlapping(self):
        assert is_interleaved([(0, 10), (5, 15)])

    def test_out_of_order_ranks(self):
        assert is_interleaved([(10, 19), (0, 9)])

    def test_empty_ranks_skipped(self):
        assert not is_interleaved([(0, 9), (0, -1), (10, 19)])

    def test_touching_is_interleaved(self):
        # ROMIO counts st <= prev_end as interleaved (byte 9 shared).
        assert is_interleaved([(0, 9), (9, 19)])


class TestDataCorrectness:
    @pytest.mark.parametrize("cb", ["8k", "32k", "1m"])
    def test_strided_roundtrip_buffer_sizes(self, cb):
        patterns = strided_patterns(8)
        m, f = run_write_all(patterns, {"cb_nodes": "2", "cb_buffer_size": cb})
        assert np.array_equal(f.data_image(), expected_image(m, f.path, patterns, f.size))

    @pytest.mark.parametrize("nagg", [1, 2, 4])
    def test_strided_roundtrip_aggregator_counts(self, nagg):
        patterns = strided_patterns(8)
        m, f = run_write_all(patterns, {"cb_nodes": str(nagg), "cb_buffer_size": "16k"})
        assert np.array_equal(f.data_image(), expected_image(m, f.path, patterns, f.size))

    def test_ufs_driver_even_domains(self):
        patterns = strided_patterns(8)
        m, f = run_write_all(patterns, {"cb_nodes": "3", "cb_buffer_size": "8k"}, driver="ufs")
        assert np.array_equal(f.data_image(), expected_image(m, f.path, patterns, f.size))

    def test_pattern_with_holes(self):
        # Ranks write disjoint extents leaving gaps; gaps stay zero.
        patterns = []
        for r in range(8):
            offs = np.array([r * 10 * KiB])
            lens = np.array([4 * KiB])  # 6 KiB hole after each block
            patterns.append(RankAccess(offs, lens))
        m, f = run_write_all(
            patterns,
            {"cb_nodes": "2", "cb_buffer_size": "16k", "romio_cb_write": "enable"},
        )
        img = f.data_image()
        for r in range(8):
            want = file_payload(m, f.path, r * 10 * KiB, 4 * KiB)
            assert np.array_equal(img[r * 10 * KiB : r * 10 * KiB + 4 * KiB], want)
            if r < 7:
                assert np.all(img[r * 10 * KiB + 4 * KiB : (r + 1) * 10 * KiB] == 0)

    def test_uneven_contributions(self):
        rng = np.random.default_rng(5)
        patterns = []
        pos = 0
        for r in range(8):
            length = int(rng.integers(1, 20)) * 512
            patterns.append(RankAccess(np.array([pos]), np.array([length])))
            pos += length
        # rank-ordered contiguous is not interleaved -> force collective
        m, f = run_write_all(
            patterns, {"cb_nodes": "4", "cb_buffer_size": "4k", "romio_cb_write": "enable"}
        )
        assert np.array_equal(f.data_image(), expected_image(m, f.path, patterns, pos))

    def test_some_ranks_empty(self):
        patterns = []
        for r in range(8):
            if r % 2 == 0:
                patterns.append(RankAccess(np.array([r * KiB]), np.array([KiB])))
            else:
                patterns.append(RankAccess.empty_access())
        m, f = run_write_all(
            patterns, {"cb_nodes": "2", "cb_buffer_size": "2k", "romio_cb_write": "enable"}
        )
        assert np.array_equal(f.data_image(), expected_image(m, f.path, patterns, f.size))

    def test_all_ranks_empty(self):
        patterns = [RankAccess.empty_access() for _ in range(8)]
        machine, world, layer = make_cluster()

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", {"romio_cb_write": "enable"})
            n = yield from fh.write_all(patterns[ctx.rank])
            yield from fh.close()
            return n

        assert world.run(body) == [0] * 8

    def test_multiple_write_all_calls(self):
        machine, world, layer = make_cluster()
        block = 2 * KiB

        def body(ctx):
            fh = yield from layer.open(
                ctx.rank, "/g/t", {"cb_nodes": "2", "romio_cb_write": "enable"}
            )
            for call in range(3):
                base = call * 8 * block
                acc = RankAccess.contiguous(base + ctx.rank * block, block)
                yield from fh.write_all(acc)
            yield from fh.close()

        world.run(body)
        img = machine.pfs.lookup("/g/t").data_image()
        assert np.array_equal(img, file_payload(machine, "/g/t", 0, 3 * 8 * block))


class TestDecisionLogic:
    def test_noninterleaved_automatic_goes_independent(self):
        machine, world, layer = make_cluster()
        block = 4 * KiB

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", {"romio_cb_write": "automatic"})
            acc = RankAccess.contiguous(ctx.rank * block, block)
            yield from fh.write_all(acc)
            yield from fh.close()
            return fh

        world.run(body)
        f = machine.pfs.lookup("/g/t")
        assert np.array_equal(f.data_image(), file_payload(machine, "/g/t", 0, 8 * block))
        # independent path: no dissemination alltoall was profiled
        fd = layer._open_slots["/g/t"][0]
        assert all(
            p.profile.get("shuffle_all2all") == 0 for p in fd.profilers.values()
        )

    def test_cb_write_disable_forces_independent(self):
        machine, world, layer = make_cluster()
        patterns = strided_patterns(8)

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", {"romio_cb_write": "disable"})
            yield from fh.write_all(patterns[ctx.rank])
            yield from fh.close()

        world.run(body)
        f = machine.pfs.lookup("/g/t")
        assert np.array_equal(f.data_image(), expected_image(machine, f.path, patterns, f.size))

    def test_memory_pinned_by_aggregators_only(self):
        machine, world, layer = make_cluster()
        patterns = strided_patterns(8)
        cb = 64 * KiB

        def body(ctx):
            fh = yield from layer.open(
                ctx.rank, "/g/t", {"cb_nodes": "2", "cb_buffer_size": str(cb)}
            )
            yield from fh.write_all(patterns[ctx.rank])
            yield from fh.close()

        world.run(body)
        # aggregators are ranks 0 (node 0) and 4 (node 2)
        assert machine.nodes[0].peak_pinned_bytes == cb
        assert machine.nodes[2].peak_pinned_bytes == cb
        assert machine.nodes[1].peak_pinned_bytes == 0

    def test_post_write_allreduce_synchronises(self):
        machine, world, layer = make_cluster()
        patterns = strided_patterns(8)
        ends = []

        def body(ctx):
            fh = yield from layer.open(ctx.rank, "/g/t", {"cb_nodes": "2"})
            yield from fh.write_all(patterns[ctx.rank])
            ends.append(ctx.now)
            yield from fh.close()

        world.run(body)
        assert max(ends) - min(ends) < 1e-6
