"""SweepRunner: parallel == serial bit-for-bit, caching, crash handling."""

import json
import multiprocessing
import time

import pytest

from repro.experiments.parallel import SweepError, SweepRunner, default_jobs
from repro.experiments.resultcache import ResultCache
from repro.experiments.runner import ExperimentSpec
from repro.experiments import sweep
from repro.experiments.sweep import default_cli_jobs
from tests.experiments.test_resultcache import fake_result

TINY = dict(scale=0.02, num_files=2, flush_batch_chunks=16)

SPECS = [
    ExperimentSpec("ior", cache_mode="disabled", **TINY),
    ExperimentSpec("ior", cache_mode="enabled", **TINY),
    ExperimentSpec("ior", cache_mode="theoretical", **TINY),
]


def dumps(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


# -- pool workers (module-level: picklable by reference) -------------------------


def _fake_worker(spec, config):
    return fake_result(spec)


def _crash_in_child(spec, config):
    """Fails inside a pool worker, succeeds on the inline parent retry."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("simulated worker crash")
    return fake_result(spec)


def _always_crash(spec, config):
    raise RuntimeError("boom")


def _sleepy_worker(spec, config):
    time.sleep(2.0)
    return fake_result(spec)


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, tmp_path):
        serial = SweepRunner(jobs=1, cache=ResultCache.disabled())
        parallel = SweepRunner(jobs=2, cache=ResultCache.disabled())
        a = serial.run(SPECS)
        b = parallel.run(SPECS)
        assert dumps(a) == dumps(b)
        assert serial.simulated == parallel.simulated == len(SPECS)

    def test_results_keep_input_order(self):
        runner = SweepRunner(jobs=2, cache=ResultCache.disabled(), worker=_fake_worker)
        results = runner.run(list(reversed(SPECS)))
        assert [r.spec for r in results] == list(reversed(SPECS))


class TestCacheIntegration:
    def test_warm_cache_performs_zero_simulations(self, tmp_path):
        sources = []
        cache = ResultCache(root=tmp_path)
        cold = SweepRunner(jobs=1, cache=cache, worker=_fake_worker)
        cold.run(SPECS)
        assert cold.simulated == len(SPECS)

        warm = SweepRunner(
            jobs=1,
            cache=ResultCache(root=tmp_path),
            worker=_always_crash,  # would fail loudly if any point simulated
            progress=lambda d, t, s, src: sources.append(src),
        )
        results = warm.run(SPECS)
        assert warm.simulated == 0
        assert sources == ["cache"] * len(SPECS)
        assert dumps(results) == dumps([fake_result(s) for s in SPECS])

    def test_duplicate_specs_simulate_once(self, tmp_path):
        calls = []

        def counting_worker(spec, config):
            calls.append(spec)
            return fake_result(spec)

        runner = SweepRunner(
            jobs=1, cache=ResultCache(root=tmp_path), worker=counting_worker
        )
        results = runner.run([SPECS[0], SPECS[1], SPECS[0], SPECS[0]])
        assert len(calls) == 2
        assert results[2] is results[0] and results[3] is results[0]

    def test_sweep_populates_cache_for_cached_runner(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        SweepRunner(jobs=1, cache=cache, worker=_fake_worker).run(SPECS[:1])
        from repro.experiments.runner import clear_memo, run_experiment_cached

        clear_memo()
        hit = run_experiment_cached(SPECS[0], cache=ResultCache(root=tmp_path))
        assert hit == fake_result(SPECS[0])


class TestFailureHandling:
    def test_pool_crash_is_retried_inline(self):
        sources = []
        runner = SweepRunner(
            jobs=2,
            cache=ResultCache.disabled(),
            worker=_crash_in_child,
            progress=lambda d, t, s, src: sources.append(src),
        )
        results = runner.run(SPECS[:2])
        assert sources.count("retry") == 2
        assert dumps(results) == dumps([fake_result(s) for s in SPECS[:2]])

    def test_exhausted_retries_raise_sweep_error(self):
        runner = SweepRunner(jobs=1, cache=ResultCache.disabled(), worker=_always_crash)
        with pytest.raises(SweepError) as err:
            runner.run(SPECS[:2])
        assert len(err.value.failures) == 2
        assert "boom" in str(err.value)

    def test_no_retries_surfaces_first_failure(self):
        runner = SweepRunner(
            jobs=2, cache=ResultCache.disabled(), worker=_crash_in_child, retries=0
        )
        with pytest.raises(SweepError):
            runner.run(SPECS[:2])

    def test_timeout_is_a_retryable_failure(self):
        runner = SweepRunner(
            jobs=2,
            cache=ResultCache.disabled(),
            worker=_sleepy_worker,
            timeout=0.2,
            retries=0,
        )
        with pytest.raises(SweepError) as err:
            runner.run(SPECS[:2])
        assert len(err.value.failures) >= 1


class TestJobsVariable:
    """``REPRO_JOBS`` is read through ``repro.options`` for both defaults:
    one worker for the library, all cores but one for the CLI."""

    def test_unset_keeps_each_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 6)
        assert (default_jobs(), default_cli_jobs()) == (1, 5)

    def test_set_wins_for_both(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert (default_jobs(), default_cli_jobs()) == (3, 3)

    @pytest.mark.parametrize("raw", ["two", "1.5", ""])
    def test_a_value_that_is_no_whole_number_is_refused_by_name(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        for default in (default_jobs, default_cli_jobs):
            with pytest.raises(ValueError, match=f"REPRO_JOBS={raw!r}: must be a whole number"):
                default()

    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_fewer_than_one_worker_is_refused_by_name(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        for default in (default_jobs, default_cli_jobs):
            with pytest.raises(ValueError, match=f"REPRO_JOBS={raw!r}: must be a whole number"):
                default()

    def test_the_cli_reports_a_bad_value_in_one_line(self, monkeypatch, capsys):
        """The CLI resolves its worker count after parsing: ``--help`` still
        works, and a run stops with a usage error (exit 2) naming the
        variable, not a traceback."""
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(SystemExit) as help_exit:
            sweep.main(["--help"])
        assert help_exit.value.code == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as run_exit:
            sweep.main(["--no-cache"])
        assert run_exit.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()[-1:]
        assert line.endswith("error: REPRO_JOBS='two': must be a whole number >= 1")
