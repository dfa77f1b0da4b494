"""The closed-form table builders against the formulas they replaced.

Each per-rank oracle below is the benchmark's layout written for one rank
at a time and pushed through the public ``RankAccess`` constructor (which
validates, sorts and prefix-sums on its own); ``step.access_fn(rank)`` — a
view of the step's all-ranks table — must agree field by field, payload
bytes included.  Each table oracle is the flattened array construction a
builder used before its table became a descriptor
(``AccessTable.strided``), kept here as the reference for the whole table.
"""

import numpy as np
import pytest

from repro.access import AccessTable, RankAccess
from repro.sim.profile import SimProfiler
from repro.units import KiB
from repro.workloads import (
    collperf_workload,
    flashio_workload,
    ior_workload,
    small_workload,
)
from repro.workloads import base
from repro.workloads.flashio import HEADER_BYTES

RANKS = (8, 64, 512)


def ior_oracle(nprocs, block, segment, rank, seed):
    rng = np.random.default_rng((seed * 7 + segment) * 100003 + rank)
    data = rng.integers(0, 256, size=block, dtype=np.uint8)
    return RankAccess.contiguous(segment * nprocs * block + rank * block, block, data)


def flashio_oracle(nprocs, per_proc, var, rank, seed):
    base_offset = (var + 1) * HEADER_BYTES + var * per_proc * nprocs
    rng = np.random.default_rng((seed * 31 + var) * 100003 + rank)
    data = rng.integers(0, 256, size=per_proc, dtype=np.uint8)
    return RankAccess.contiguous(base_offset + rank * per_proc, per_proc, data)


def collperf_oracle(wl, block_bytes, rank, seed):
    _, py, pz = wl.detail["grid"]
    bx, by, bz = wl.detail["block"]
    _, NY, NZ = wl.detail["array"]
    esize = wl.detail["elem_size"]
    x0, y0, z0 = (rank // (py * pz)) * bx, ((rank // pz) % py) * by, (rank % pz) * bz
    xs = np.arange(x0, x0 + bx, dtype=np.int64)
    ys = np.arange(y0, y0 + by, dtype=np.int64)
    offs = (((xs[:, None] * NY + ys[None, :]) * NZ + z0) * esize).ravel()
    rng = np.random.default_rng(seed * 100003 + rank)
    data = rng.integers(0, 256, size=block_bytes, dtype=np.uint8)
    return RankAccess(offs, np.full(offs.shape, bz * esize, dtype=np.int64), data)


def assert_same_access(view, ref):
    for name in ("offsets", "lengths", "ends", "prefix", "data"):
        assert np.array_equal(getattr(view, name), getattr(ref, name)), name
    assert view.total_bytes == ref.total_bytes
    assert (view.start_offset, view.end_offset) == (ref.start_offset, ref.end_offset)


def sample_ranks(nprocs):
    return sorted({0, 1, nprocs // 2, nprocs - 2, nprocs - 1})


@pytest.mark.parametrize("nprocs", RANKS)
class TestViewsEqualPerRankConstructor:
    def test_ior(self, nprocs):
        wl = ior_workload(
            nprocs, block_bytes=4 * KiB, segments=3, with_data=True, seed=5
        )
        for segment, step in enumerate(wl.steps):
            assert step.table().nranks == nprocs
            for rank in sample_ranks(nprocs):
                ref = ior_oracle(nprocs, 4 * KiB, segment, rank, seed=5)
                assert_same_access(step.access_fn(rank), ref)

    def test_flashio(self, nprocs):
        wl = flashio_workload(
            nprocs,
            blocks_per_proc=1,
            zones_per_dim=4,
            num_unknowns=3,
            with_data=True,
            seed=9,
        )
        per_proc = 4**3 * 8
        collective = [s for s in wl.steps if s.kind == "collective"]
        assert len(collective) == 3
        for var, step in enumerate(collective):
            for rank in sample_ranks(nprocs):
                ref = flashio_oracle(nprocs, per_proc, var, rank, seed=9)
                assert_same_access(step.access_fn(rank), ref)

    def test_collperf(self, nprocs):
        wl = collperf_workload(nprocs, block_bytes=32 * KiB, with_data=True, seed=2)
        (step,) = wl.steps
        assert len(step.table()) == nprocs * 16  # 2 KiB runs
        for rank in sample_ranks(nprocs):
            ref = collperf_oracle(wl, 32 * KiB, rank, seed=2)
            assert_same_access(step.access_fn(rank), ref)

    def test_dataless_views_carry_no_payload(self, nprocs):
        wl = collperf_workload(nprocs, block_bytes=32 * KiB)
        (step,) = wl.steps
        view = step.access_fn(nprocs - 1)
        assert view.data is None and view is step.access_fn(nprocs - 1)
        ref = collperf_oracle(wl, 32 * KiB, nprocs - 1, seed=0)
        assert np.array_equal(view.offsets, ref.offsets)
        assert np.array_equal(view.prefix, ref.prefix)


def ior_table_oracle(nprocs, block, segment):
    ranks = np.arange(nprocs, dtype=np.int64)
    return AccessTable(
        segment * nprocs * block + ranks * block,
        np.broadcast_to(np.int64(block), nprocs),
        np.arange(nprocs + 1, dtype=np.int64),
    )


def flashio_table_oracle(nprocs, per_proc, var):
    base_offset = (var + 1) * HEADER_BYTES + var * per_proc * nprocs
    return AccessTable(
        base_offset + np.arange(nprocs, dtype=np.int64) * per_proc,
        np.broadcast_to(np.int64(per_proc), nprocs),
        np.arange(nprocs + 1, dtype=np.int64),
    )


def collperf_table_oracle(wl):
    nprocs = wl.nprocs
    _, py, pz = wl.detail["grid"]
    bx, by, bz = wl.detail["block"]
    _, NY, NZ = wl.detail["array"]
    ranks = np.arange(nprocs, dtype=np.int64)
    x0 = (ranks // (py * pz)) * bx
    y0 = ((ranks // pz) % py) * by
    z0 = (ranks % pz) * bz
    xs = x0[:, None, None] + np.arange(bx, dtype=np.int64)[None, :, None]
    ys = y0[:, None, None] + np.arange(by, dtype=np.int64)[None, None, :]
    offs = ((xs * NY + ys) * NZ + z0[:, None, None]) * wl.detail["elem_size"]
    return AccessTable(
        offs.ravel(),
        np.broadcast_to(np.int64(bz * wl.detail["elem_size"]), offs.size),
        np.arange(nprocs + 1, dtype=np.int64) * (bx * by),
    )


def assert_same_table(table, oracle):
    assert table.levels is not None and oracle.levels is None
    windows = np.linspace(0, oracle.max_end + 1, 3 * 8).astype(np.int64).reshape(3, 8)
    for got, want in zip(table.window_sums(windows), oracle.window_sums(windows)):
        assert np.array_equal(got, want)
    for got, want in zip(table.coverage, oracle.coverage):
        assert np.array_equal(got, want)
    assert table.interleaved == oracle.interleaved
    assert (table.min_st, table.max_end) == (oracle.min_st, oracle.max_end)
    assert "offsets" not in vars(table)  # none of the above flattened it
    for name in ("st_offsets", "end_offsets", "offsets", "lengths", "prefix", "rank_ptr"):
        assert np.array_equal(getattr(table, name), getattr(oracle, name)), name


class TestTablesEqualTheirFormerArrayConstruction:
    @pytest.mark.parametrize("nprocs", [1, 8, 12])
    def test_ior(self, nprocs):
        wl = ior_workload(nprocs, block_bytes=4 * KiB, segments=3)
        for segment, step in enumerate(wl.steps):
            assert_same_table(step.table(), ior_table_oracle(nprocs, 4 * KiB, segment))

    @pytest.mark.parametrize("nprocs", [1, 8, 12])
    def test_flashio(self, nprocs):
        wl = flashio_workload(nprocs, blocks_per_proc=1, zones_per_dim=4, num_unknowns=3)
        collective = [s for s in wl.steps if s.kind == "collective"]
        for var, step in enumerate(collective):
            assert_same_table(step.table(), flashio_table_oracle(nprocs, 4**3 * 8, var))

    @pytest.mark.parametrize(
        "nprocs, block_bytes, grid",
        [
            (1, 32 * KiB, (1, 1, 1)),
            (2, 16 * KiB, (2, 1, 1)),  # pz == 1: a rank's runs touch end to end
            (6, 32 * KiB, (3, 2, 1)),
            (12, 8 * KiB, (3, 2, 2)),  # not a cube
            (12, 24, (3, 2, 2)),  # a one-run block: both levels have count 1
            (64, 32 * KiB, (4, 4, 4)),
        ],
    )
    def test_collperf(self, nprocs, block_bytes, grid):
        wl = collperf_workload(nprocs, block_bytes=block_bytes)
        assert wl.detail["grid"] == grid
        table = wl.steps[0].table()
        assert_same_table(table, collperf_table_oracle(wl))
        if grid[2] == 1:
            assert table.levels[1][1] == table.rank(0).lengths[0]  # stride == run


class TestSharedDatalessMemo:
    def test_equal_shapes_share_one_workload_and_table(self):
        for build in (
            lambda **kw: ior_workload(8, block_bytes=4 * KiB, segments=2, **kw),
            lambda **kw: flashio_workload(8, blocks_per_proc=1, zones_per_dim=4, **kw),
            lambda **kw: collperf_workload(8, block_bytes=16 * KiB, **kw),
        ):
            first, again = build(), build(seed=7)  # a dataless recipe has no seed
            assert first is again
            step = next(s for s in first.steps if s.kind == "collective")
            assert step.table() is step.table()
            assert isinstance(step.table(), AccessTable)
            # payload-carrying recipes are never shared
            assert build(with_data=True) is not build(with_data=True)

    def test_fleet_and_fault_sizing_meet_in_the_memo(self):
        from repro.experiments.faultsweep import (
            FaultExperimentSpec,
            build_fault_workload,
        )
        from repro.fleet.job import FleetJobSpec, build_job_workload

        for bench in ("ior", "coll_perf", "flash_io"):
            job_a = FleetJobSpec(1, benchmark=bench, scale=0.5, seed=1)
            job_b = FleetJobSpec(2, benchmark=bench, scale=0.5, seed=2)
            a, b = build_job_workload(job_a, 8), build_job_workload(job_b, 8)
            assert a is b is small_workload(bench, 8, 0.5)
            fault = build_fault_workload(FaultExperimentSpec(bench, scale=0.5), 8)
            assert fault is not a and fault.file_size == a.file_size
            assert fault.steps[-1].access_fn(3).data is not None
        with pytest.raises(ValueError, match="unknown benchmark 'hacc'"):
            small_workload("hacc", 8, 1.0)

    def test_paper_scale_coll_perf_is_budgeted_by_what_it_holds(self):
        """16.7 M extents described, 512 int64s held: used to be over the
        budget and rebuilt for every caller."""
        assert 512 * 128 * 256 > base._DATALESS_MEMO_HELD
        first = collperf_workload(512)
        assert collperf_workload(512) is first
        assert base._DATALESS_MEMO[("coll_perf", 512, 64 * 1024 * KiB, 8)][1] == 512

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(base, "_DATALESS_MEMO", {})
        monkeypatch.setattr(base, "_DATALESS_MEMO_MAX", 2)
        monkeypatch.setattr(base, "_DATALESS_MEMO_HELD", 100)
        builds = []

        def make(tag):
            def build():
                builds.append(tag)
                return base.Workload(tag, 1, (), 0, 0)

            return build

        a = base.shared_dataless(("a",), 40, make("a"))
        assert base.shared_dataless(("a",), 40, make("a")) is a
        base.shared_dataless(("b",), 40, make("b"))
        assert builds == ["a", "b"] and len(base._DATALESS_MEMO) == 2
        # over the extent budget: everything held is dropped first
        base.shared_dataless(("c",), 40, make("c"))
        assert set(base._DATALESS_MEMO) == {("c",)}
        # larger than the whole budget: built, never held
        big = base.shared_dataless(("big",), 101, make("big"))
        assert base.shared_dataless(("big",), 101, make("big")) is not big
        assert set(base._DATALESS_MEMO) == {("c",)}
        # entry bound
        base.shared_dataless(("d",), 1, make("d"))
        base.shared_dataless(("e",), 1, make("e"))
        assert set(base._DATALESS_MEMO) == {("e",)}


def test_table_build_is_counted_once():
    wl = ior_workload(8, block_bytes=4 * KiB, segments=1, with_data=True)
    (step,) = wl.steps
    prof = SimProfiler()
    for rank in range(8):
        step.access_fn(rank, prof)
    assert prof.counters == {"access.table_build": 1}
