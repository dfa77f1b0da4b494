"""End-to-end experiment runs at tiny scale; paper-shape assertions live in
tests/integration/test_shapes.py (slower, full default scale)."""

import pytest

from repro.config import small_testbed
from repro.experiments.resultcache import ResultCache
from repro.experiments.runner import (
    ExperimentSpec,
    build_workload,
    clear_memo,
    hints_for,
    run_experiment,
    run_experiment_cached,
)
from repro.units import MiB

TINY = dict(scale=0.02, num_files=2, flush_batch_chunks=16)


class TestSpec:
    def test_label(self):
        spec = ExperimentSpec("ior", aggregators=8, cb_buffer=4 * MiB)
        assert spec.label == "8_4M"

    def test_invalid_benchmark(self):
        with pytest.raises(ValueError):
            ExperimentSpec("hpl")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ExperimentSpec("ior", cache_mode="maybe")

    def test_hints_for_modes(self):
        assert "e10_cache" not in hints_for(ExperimentSpec("ior"))
        enabled = hints_for(ExperimentSpec("ior", cache_mode="enabled"))
        assert enabled["e10_cache"] == "enable"
        assert enabled["e10_cache_flush_flag"] == "flush_immediate"
        theo = hints_for(ExperimentSpec("ior", cache_mode="theoretical"))
        assert theo["e10_cache_flush_flag"] == "flush_none"

    def test_workload_scaling_preserves_ior_block(self):
        wl_small = build_workload(ExperimentSpec("ior", scale=0.25), 512)
        wl_full = build_workload(ExperimentSpec("ior", scale=1.0), 512)
        assert wl_small.detail["block_bytes"] == wl_full.detail["block_bytes"]
        assert wl_small.detail["segments"] < wl_full.detail["segments"]


class TestRun:
    # note: the parameter is named `bench` because pytest-benchmark reserves
    # the `benchmark` fixture name.
    @pytest.mark.parametrize("bench", ["ior", "flash_io", "coll_perf"])
    def test_disabled_mode_persists_everything(self, bench):
        spec = ExperimentSpec(bench, cache_mode="disabled", **TINY)
        r = run_experiment(spec)
        assert r.bytes_persisted == spec.num_files * r.file_size
        assert r.bw > 0
        assert r.close_wait == pytest.approx(0.0, abs=0.05)

    def test_enabled_mode_persists_everything(self):
        spec = ExperimentSpec("ior", cache_mode="enabled", **TINY)
        r = run_experiment(spec)
        assert r.bytes_persisted == spec.num_files * r.file_size

    def test_theoretical_mode_persists_nothing(self):
        spec = ExperimentSpec("ior", cache_mode="theoretical", **TINY)
        r = run_experiment(spec)
        assert r.bytes_persisted == 0

    def test_enabled_faster_than_disabled(self):
        fast = run_experiment(ExperimentSpec("ior", cache_mode="enabled", **TINY))
        slow = run_experiment(ExperimentSpec("ior", cache_mode="disabled", **TINY))
        assert fast.bw > slow.bw

    def test_breakdown_has_expected_phases(self):
        r = run_experiment(ExperimentSpec("ior", cache_mode="disabled", **TINY))
        assert "write" in r.breakdown
        assert "shuffle_all2all" in r.breakdown
        assert "post_write" in r.breakdown

    def test_peak_pinned_tracks_cb_buffer(self):
        small = run_experiment(
            ExperimentSpec("ior", cb_buffer=4 * MiB, cache_mode="enabled", **TINY)
        )
        big = run_experiment(
            ExperimentSpec("ior", cb_buffer=64 * MiB, cache_mode="enabled", **TINY)
        )
        assert big.peak_pinned == 64 * MiB
        assert small.peak_pinned == 4 * MiB

    def test_determinism(self):
        spec = ExperimentSpec("ior", cache_mode="enabled", **TINY)
        r1 = run_experiment(spec)
        r2 = run_experiment(spec)
        assert r1.bw == r2.bw
        assert r1.breakdown == r2.breakdown

    def test_cached_runner_memoises(self):
        spec = ExperimentSpec("ior", cache_mode="disabled", **TINY)
        a = run_experiment_cached(spec)
        b = run_experiment_cached(spec)
        assert a is b


class TestCachedRunnerConfigKey:
    def test_different_configs_do_not_alias(self, tmp_path):
        """Regression: the memo used to key on the spec alone, so a second
        call with a different ClusterConfig returned the first's result."""
        clear_memo()
        cache = ResultCache(root=tmp_path)
        spec = ExperimentSpec("ior", cache_mode="disabled", **TINY)
        small = run_experiment_cached(spec, config=small_testbed(4, 2), cache=cache)
        big = run_experiment_cached(spec, config=small_testbed(8, 2), cache=cache)
        assert small is not big
        assert (small.file_size, small.bw) != (big.file_size, big.bw)
        again = run_experiment_cached(spec, config=small_testbed(4, 2), cache=cache)
        assert again is small

    def test_disk_cache_survives_memo_clear(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        clear_memo()
        spec = ExperimentSpec("ior", cache_mode="disabled", **TINY)
        cfg = small_testbed(4, 2)
        first = run_experiment_cached(spec, config=cfg, cache=ResultCache(root=tmp_path))
        clear_memo()
        monkeypatch.setattr(
            runner_mod,
            "run_experiment",
            lambda *a, **k: pytest.fail("should have hit the disk cache"),
        )
        second = run_experiment_cached(
            spec, config=cfg, cache=ResultCache(root=tmp_path)
        )
        assert second == first
        assert second is not first  # round-tripped through JSON, not the memo
