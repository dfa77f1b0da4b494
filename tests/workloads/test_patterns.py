"""Workload pattern invariants: exact tiling, no overlap, paper geometry."""

import tracemalloc

import numpy as np
import pytest

from repro.access import merge_extent_arrays
from repro.units import KiB, MiB
from repro.workloads import base, collperf_workload, flashio_workload, ior_workload


def assert_tiles_exactly(workload, nprocs):
    """All collective steps together cover their regions exactly once."""
    for step in workload.steps:
        if step.kind != "collective":
            continue
        accesses = [step.access_fn(r) for r in range(nprocs)]
        offs = [a.offsets for a in accesses]
        lens = [a.lengths for a in accesses]
        starts, ends = merge_extent_arrays(offs, lens)
        covered = int((ends - starts).sum())
        total = sum(a.total_bytes for a in accesses)
        assert covered == total, "overlapping extents between ranks"


class TestCollPerf:
    def test_paper_geometry(self):
        wl = collperf_workload(512, block_bytes=64 * MiB)
        assert wl.detail["grid"] == (8, 8, 8)
        bx, by, bz = wl.detail["block"]
        assert bz == 256  # 2 KiB contiguous z-runs, as in the paper
        assert bx * by * bz * 8 == 64 * MiB
        assert wl.file_size == 512 * 64 * MiB  # 32 GiB
        acc = wl.steps[0].access_fn(0)
        assert len(acc) == 128 * 256  # extents per rank
        assert int(acc.lengths[0]) == 256 * 8  # 2 KiB contiguous runs

    def test_paper_geometry_stays_a_descriptor(self, monkeypatch):
        """What a model-fidelity run asks of the 16.7 M-extent table — built,
        merged and intersected with 64 aggregators x 32 rounds of 16 MiB —
        never flattens it (the CSR form is 323 MiB before the merge sorts)."""
        monkeypatch.setattr(base, "_DATALESS_MEMO", {})  # built here, traced here
        tracemalloc.start()
        try:
            table = collperf_workload(512, block_bytes=64 * MiB).steps[0].table()
            assert len(table) == 512 * 128 * 256 and table.max_rank_extents == 128 * 256
            starts, ends = table.coverage
            assert (starts.tolist(), ends.tolist()) == ([0], [32 * 1024 * MiB])
            domains = np.arange(64, dtype=np.int64)[:, None] * (512 * MiB)
            bounds = domains + np.arange(33, dtype=np.int64) * (16 * MiB)
            nbytes, pieces = table.window_sums(bounds)
            assert nbytes.shape == (512, 64, 32)
            assert (int(nbytes.sum()), int(pieces.sum())) == (32 * 1024 * MiB, len(table))
            assert int(nbytes[0].sum()) == 64 * MiB
            del nbytes, pieces
            table.digest, table.interleaved, [table.rank(r) for r in range(512)]
            assert not {"offsets", "prefix", "ends"} & set(vars(table))
            assert tracemalloc.get_traced_memory()[0] < MiB  # all that is held
        finally:
            tracemalloc.stop()

    def test_tiles_exactly_small(self):
        wl = collperf_workload(8, block_bytes=64 * KiB)
        assert_tiles_exactly(wl, 8)

    @pytest.mark.parametrize("nprocs", [2, 6, 8, 12])
    def test_grid_factorisation(self, nprocs):
        wl = collperf_workload(nprocs, block_bytes=64 * KiB)
        px, py, pz = wl.detail["grid"]
        assert px * py * pz == nprocs

    def test_strided_interleaved(self):
        from repro.romio.ext2ph import is_interleaved

        wl = collperf_workload(8, block_bytes=64 * KiB)
        accs = [wl.steps[0].access_fn(r) for r in range(8)]
        pairs = [(a.start_offset, a.end_offset) for a in accs]
        assert is_interleaved(pairs)

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            collperf_workload(8, block_bytes=100, elem_size=8)


class TestIOR:
    def test_paper_geometry(self):
        wl = ior_workload(512, block_bytes=8 * MiB, segments=8)
        assert wl.file_size == 32 * 1024 * MiB  # 32 GiB
        assert len(wl.steps) == 8  # one collective write per segment
        acc = wl.steps[3].access_fn(7)
        assert acc.start_offset == 3 * 512 * 8 * MiB + 7 * 8 * MiB
        assert acc.total_bytes == 8 * MiB

    def test_tiles_exactly(self):
        wl = ior_workload(8, block_bytes=4 * KiB, segments=3)
        assert_tiles_exactly(wl, 8)

    def test_segments_disjoint(self):
        wl = ior_workload(4, block_bytes=KiB, segments=2)
        a0 = wl.steps[0].access_fn(3)
        a1 = wl.steps[1].access_fn(0)
        assert a0.end_offset < a1.start_offset

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ior_workload(4, block_bytes=0)
        with pytest.raises(ValueError):
            ior_workload(4, segments=0)


class TestFlashIO:
    def test_paper_geometry(self):
        wl = flashio_workload(512)
        # 24 unknowns, 80 blocks/proc, 16^3 zones, 8 B
        per_proc_per_var = 80 * 16**3 * 8
        assert per_proc_per_var == 80 * 32 * KiB  # 2.5 MiB
        assert wl.bytes_per_rank == per_proc_per_var * 24  # 60 MiB/proc
        total_data = wl.bytes_per_rank * 512
        assert total_data == 30 * 1024 * MiB  # 30 GiB of unknowns
        assert wl.file_size > total_data  # plus headers
        # steps: header + collective per variable
        assert len(wl.steps) == 48
        assert [s.kind for s in wl.steps[:2]] == ["rank0", "collective"]

    def test_768kib_per_proc_per_block(self):
        # paper: '24 variables encoded with 8 bytes (768 KB/proc/block)'
        per_block_all_vars = 16**3 * 24 * 8
        assert per_block_all_vars == 768 * KiB

    def test_rank_contiguous_within_variable(self):
        wl = flashio_workload(4, blocks_per_proc=2, zones_per_dim=4)
        step = next(s for s in wl.steps if s.kind == "collective")
        accs = [step.access_fn(r) for r in range(4)]
        for a, b in zip(accs, accs[1:]):
            assert b.start_offset == a.end_offset + 1

    def test_tiles_exactly(self):
        wl = flashio_workload(4, blocks_per_proc=2, zones_per_dim=4)
        assert_tiles_exactly(wl, 4)

    def test_plotfiles_smaller_than_checkpoint(self):
        ckpt = flashio_workload(8, blocks_per_proc=4)
        plot = flashio_workload(8, blocks_per_proc=4, kind="plot")
        corners = flashio_workload(8, blocks_per_proc=4, kind="plot_corners")
        assert plot.file_size < ckpt.file_size
        assert corners.file_size > plot.file_size  # zones+1 per direction

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            flashio_workload(4, kind="restart")
