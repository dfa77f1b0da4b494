"""Device-tier contracts across the whole stack.

Three properties anchor the tier design:

1. **Stream identity** — ``REPRO_SSD`` unset, ``=stream``, and an explicit
   ``ssd_kind="stream"`` all produce byte-identical results: the FTL tier
   is strictly opt-in.
2. **Stack invariance under ftl** — the byte-identity contract
   (only diagnostic event counts may differ) extends to the new device
   models: the FTL runs synchronously inside ``service_time`` and the WAL
   uses the same generator/flat dual paths as the extent backend.
3. **NVMM transparency** — a workload written through the WAL cache is
   byte-identical on the PFS to the extent-cache and no-cache runs.
"""

import numpy as np
import pytest

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.hw.flash import FlashSSDDevice
from repro.units import KiB
from repro.workloads import ior_workload
from tests.conftest import make_cluster
from tests.integration.test_end_to_end import CACHE, expected_image, run_workload

TINY = dict(scale=0.02, num_files=2, flush_batch_chunks=16)


def result_dict(monkeypatch, ssd=None, cache_kind=None, reference=False):
    for var, value in (("REPRO_SSD", ssd), ("REPRO_CACHE_KIND", cache_kind)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    monkeypatch.setenv("REPRO_CACHE", "0")  # measure, never memoise
    spec = ExperimentSpec("ior", cache_mode="enabled", **TINY)
    return run_experiment(spec, reference=reference).to_dict()


class TestStreamIdentity:
    def test_default_equals_explicit_stream(self, monkeypatch):
        default = result_dict(monkeypatch)
        explicit = result_dict(monkeypatch, ssd="stream")
        assert default == explicit  # including the diagnostic event count

    def test_stream_equals_default_under_nvmm_absence(self, monkeypatch):
        default = result_dict(monkeypatch)
        extent = result_dict(monkeypatch, cache_kind="extent")
        assert default == extent


class TestFtlInvariance:
    def test_reference_stack_agrees_under_ftl(self, monkeypatch):
        production = result_dict(monkeypatch, ssd="ftl")
        reference = result_dict(monkeypatch, ssd="ftl", reference=True)
        # the production stack strictly reduces the event count
        assert production.pop("events") < reference.pop("events")
        assert production == reference

    def test_nvmm_cache_agrees_with_reference_stack(self, monkeypatch):
        production = result_dict(monkeypatch, cache_kind="nvmm")
        reference = result_dict(monkeypatch, cache_kind="nvmm", reference=True)
        production.pop("events"), reference.pop("events")
        assert production == reference


class TestNvmmTransparency:
    def test_nvmm_cache_file_identical_to_extent(self):
        wl = ior_workload(8, block_bytes=8 * KiB, segments=3, with_data=True, seed=31)
        extent = run_workload(wl, CACHE).data_image()
        nvmm = run_workload(wl, dict(CACHE, e10_cache_kind="nvmm")).data_image()
        assert np.array_equal(nvmm, extent)
        assert np.array_equal(nvmm, expected_image(wl, 8))

    def test_nvmm_cache_skips_the_scratch_ssd(self):
        wl = ior_workload(8, block_bytes=8 * KiB, segments=2, with_data=True, seed=32)
        machine, world, layer = make_cluster()

        def body(ctx):
            fh = yield from layer.open(
                ctx.rank, "/g/nv", dict(CACHE, e10_cache_kind="nvmm")
            )
            for step in wl.steps:
                if step.kind == "collective":
                    yield from fh.write_all(step.access_fn(ctx.rank))
            yield from fh.close()

        world.run(body)
        assert all(n.ssd.bytes_written == 0 for n in machine.nodes)
        assert any(n.nvmm.bytes_written > 0 for n in machine.nodes)
        # the log region is released once flush+close discard the WALs
        assert all(n.nvmm.log_used == 0 for n in machine.nodes)

    def test_ftl_machine_runs_cached_workload(self, monkeypatch):
        monkeypatch.setenv("REPRO_SSD", "ftl")
        wl = ior_workload(8, block_bytes=8 * KiB, segments=2, with_data=True, seed=33)
        machine, world, layer = make_cluster()
        assert isinstance(machine.nodes[0].ssd, FlashSSDDevice)

        def body(ctx):
            # the SSD-backed cache, whatever REPRO_CACHE_KIND the CI leg sets
            fh = yield from layer.open(ctx.rank, "/g/ftl", dict(CACHE, e10_cache_kind="extent"))
            for step in wl.steps:
                if step.kind == "collective":
                    yield from fh.write_all(step.access_fn(ctx.rank))
            yield from fh.close()

        world.run(body)
        img = machine.pfs.lookup("/g/ftl").data_image()
        assert np.array_equal(img, expected_image(wl, 8))
        aged = [n.ssd for n in machine.nodes if n.ssd.host_pages_programmed]
        assert aged  # the cache writes really went through the FTL
        assert all(d.write_amplification >= 1.0 for d in aged)
