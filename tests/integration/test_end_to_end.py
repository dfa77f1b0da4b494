"""Cross-module integration: the same workload written with and without the
cache must produce byte-identical global files, through every layer (MPI,
two-phase, cache, sync thread, PFS), and both must equal a flat oracle of
the payload function over the workload's extents."""

import numpy as np

from repro.access import RankAccess
from repro.chaos.invariants import verify_files
from repro.mpiwrap.config import WrapConfig
from repro.payload import payload_key
from repro.mpiwrap.wrapper import MPIWrap
from repro.units import KiB
from repro.workloads import collperf_workload, flashio_workload, ior_workload
from repro.workloads.phases import multi_phase_body
from tests.conftest import expected_image, make_cluster


def expected(machine, path, workload, nprocs=8):
    """The file's flat oracle, and no violation from the table-driven check.
    Rank 0's independent writes (FLASH-IO's headers) carry payload too."""
    key = payload_key(machine.config.seed, path)
    assert verify_files(machine.pfs, {path: workload.coverage}, lambda _: key) == []
    accesses = []
    for step in workload.steps:
        if step.kind == "collective":
            accesses += [step.access_fn(r) for r in range(nprocs)]
        else:
            accesses.append(RankAccess.contiguous(step.offset, step.nbytes))
    return expected_image(machine, path, accesses, workload.file_size)


def run_workload(workload, hints, nprocs=8):
    machine, world, layer = make_cluster()

    def body(ctx):
        fh = yield from layer.open(ctx.rank, "/g/t", hints)
        for step in workload.steps:
            if step.kind == "collective":
                yield from fh.write_all(step.access_fn(ctx.rank))
            elif ctx.rank == 0:
                yield from fh.write_at(step.offset, step.nbytes)
        yield from fh.close()

    world.run(body)
    return machine, machine.pfs.lookup("/g/t")


CACHE = {
    "e10_cache": "enable",
    "e10_cache_flush_flag": "flush_immediate",
    "romio_cb_write": "enable",
    "cb_nodes": "4",
    "cb_buffer_size": "32k",
    "ind_wr_buffer_size": "8k",
}
NOCACHE = {k: v for k, v in CACHE.items() if not k.startswith("e10")}


class TestCacheTransparency:
    """The cache layer must be completely invisible in the final file."""

    def test_collperf(self):
        wl = collperf_workload(8, block_bytes=32 * KiB)
        machine, f = run_workload(wl, CACHE)
        _, without = run_workload(wl, NOCACHE)
        assert np.array_equal(f.data_image(), without.data_image())
        assert np.array_equal(f.data_image(), expected(machine, f.path, wl))

    def test_ior(self):
        wl = ior_workload(8, block_bytes=8 * KiB, segments=3)
        machine, f = run_workload(wl, CACHE)
        assert np.array_equal(f.data_image(), expected(machine, f.path, wl))

    def test_flashio(self):
        wl = flashio_workload(8, blocks_per_proc=2, zones_per_dim=4)
        machine, f = run_workload(wl, CACHE)
        assert np.array_equal(f.data_image(), expected(machine, f.path, wl))

    def test_flush_onclose_same_content(self):
        wl = ior_workload(8, block_bytes=8 * KiB, segments=2)
        hints = dict(CACHE, e10_cache_flush_flag="flush_onclose")
        machine, f = run_workload(wl, hints)
        assert np.array_equal(f.data_image(), expected(machine, f.path, wl))

    def test_coherent_same_content(self):
        wl = ior_workload(8, block_bytes=8 * KiB, segments=2)
        hints = dict(CACHE, e10_cache="coherent")
        machine, f = run_workload(wl, hints)
        assert np.array_equal(f.data_image(), expected(machine, f.path, wl))


class TestPhasedWithWrapper:
    def test_legacy_app_through_mpiwrap(self):
        machine, world, layer = make_cluster()
        wl = ior_workload(8, block_bytes=4 * KiB, segments=2)
        config = WrapConfig.parse(
            """
[/g/out_*]
e10_cache = enable
e10_cache_flush_flag = flush_immediate
romio_cb_write = enable
cb_nodes = 2
ind_wr_buffer_size = 8k
defer_close = true
"""
        )
        wrap = MPIWrap(layer, config)
        body = multi_phase_body(
            layer, wl, {}, num_files=3, compute_delay=0.5,
            file_prefix="/g/out_", wrapper=wrap,
        )
        timings = world.run(body)
        for k in range(3):
            f = machine.pfs.lookup(f"/g/out_{k}")
            assert np.array_equal(f.data_image(), expected(machine, f.path, wl))
        # the wrapper made intermediate closes free
        for per_rank in timings:
            assert per_rank[0].close_wait == 0.0 or per_rank[0].close_wait < 0.6

    def test_wrapper_vs_builtin_deferral_equivalent_content(self):
        wl = ior_workload(8, block_bytes=4 * KiB, segments=2)

        def run(with_wrapper):
            machine, world, layer = make_cluster()
            if with_wrapper:
                config = WrapConfig.parse(
                    "[/g/o_*]\ne10_cache = enable\nromio_cb_write = enable\n"
                    "e10_cache_flush_flag = flush_immediate\ndefer_close = true\n"
                )
                wrapper = MPIWrap(layer, config)
                body = multi_phase_body(
                    layer, wl, {}, num_files=2, compute_delay=0.2,
                    file_prefix="/g/o_", wrapper=wrapper,
                )
            else:
                hints = {
                    "e10_cache": "enable",
                    "romio_cb_write": "enable",
                    "e10_cache_flush_flag": "flush_immediate",
                }
                body = multi_phase_body(
                    layer, wl, hints, num_files=2, compute_delay=0.2,
                    deferred_close=True, file_prefix="/g/o_",
                )
            world.run(body)
            return [machine.pfs.lookup(f"/g/o_{k}").data_image() for k in range(2)]

        for a, b in zip(run(True), run(False)):
            assert np.array_equal(a, b)
