"""The closed-form table builders against the per-rank formulas they replaced.

Each oracle below is the benchmark's layout written for one rank at a time
and pushed through the public ``RankAccess`` constructor (which validates,
sorts and prefix-sums on its own); ``step.access_fn(rank)`` — a zero-copy
view of the step's all-ranks table — must agree field by field, payload
bytes included.
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

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(base, "_DATALESS_MEMO", {})
        monkeypatch.setattr(base, "_DATALESS_MEMO_MAX", 2)
        monkeypatch.setattr(base, "_DATALESS_MEMO_EXTENTS", 100)
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
