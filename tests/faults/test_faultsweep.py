"""Fault-matrix experiments: integrity, recovery metrics, caching, CLI."""

import pytest

from repro.experiments import faultsweep, sweep
from repro.experiments.faultsweep import (
    FaultExperimentResult,
    FaultExperimentSpec,
    fault_matrix_specs,
    render_fault_table,
    run_fault_experiment,
    scenario_faults,
)
from repro.experiments.parallel import SweepRunner
from repro.experiments.resultcache import ResultCache


def _spec(scenario, **kw):
    base = FaultExperimentSpec(benchmark="ior", scenario=scenario, **kw)
    faults, timeout = scenario_faults(scenario, base)
    return base.scaled(faults=faults, sync_rpc_timeout=timeout)


class TestSpecMatrix:
    def test_matrix_covers_all_scenarios(self):
        specs = fault_matrix_specs()
        assert [s.scenario for s in specs] == list(faultsweep.SCENARIOS)
        assert all(s.benchmark == "ior" for s in specs)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown fault scenario"):
            scenario_faults("meteor_strike", _spec("baseline"))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            FaultExperimentSpec(benchmark="nope")

    def test_faults_coerced_to_tuple(self):
        spec = FaultExperimentSpec(
            benchmark="ior", faults=list(_spec("ssd_flaky").faults)
        )
        assert isinstance(spec.faults, tuple)


class TestSinglePoints:
    def test_baseline_matches_reference(self):
        r = run_fault_experiment(_spec("baseline"))
        assert r.integrity_ok
        assert not r.crashed
        assert r.faults_injected == 0
        assert r.bw_ref > 0
        assert r.degraded_bw_ratio == pytest.approx(1.0, rel=0.05)

    def test_ssd_flaky_retries_and_survives(self):
        r = run_fault_experiment(_spec("ssd_flaky"))
        assert r.integrity_ok
        assert not r.crashed
        assert r.retries > 0
        assert r.faults_injected > 0
        assert r.sync_failures == 0

    def test_ssd_loss_degrades_and_survives(self):
        r = run_fault_experiment(_spec("ssd_loss"))
        assert r.integrity_ok
        assert not r.crashed
        assert r.degraded >= 1

    def test_agg_crash_recovers_byte_identical(self):
        r = run_fault_experiment(_spec("agg_crash"))
        assert r.crashed
        assert r.recovered
        assert r.integrity_ok
        assert r.bytes_replayed > 0
        assert r.files_recovered >= 1
        assert r.recovery_time > 0.0
        assert r.bw_faulted == 0.0  # the faulted job never finished

    def test_point_is_deterministic(self):
        a = run_fault_experiment(_spec("agg_crash"))
        b = run_fault_experiment(_spec("agg_crash"))
        assert a.to_dict() == b.to_dict()


class TestResultRoundTrip:
    def test_to_from_dict(self):
        r = run_fault_experiment(_spec("ssd_loss"))
        again = FaultExperimentResult.from_dict(r.to_dict())
        assert again == r
        assert again.spec.faults == r.spec.faults
        assert isinstance(again.spec.faults[0], type(r.spec.faults[0]))


class TestRunnerIntegration:
    def test_serial_equals_parallel(self):
        specs = [_spec("baseline"), _spec("ssd_loss")]
        serial = SweepRunner(jobs=1, cache=ResultCache(enabled=False)).run(specs)
        para = SweepRunner(jobs=2, cache=ResultCache(enabled=False)).run(specs)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in para]

    def test_result_cache_round_trip(self, tmp_path):
        spec = _spec("baseline")

        def runner():
            return SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))

        cold = runner()
        first = cold.run([spec])
        assert cold.simulated == 1
        warm = runner()
        second = warm.run([spec])
        assert warm.simulated == 0  # served entirely from the on-disk cache
        assert second[0].to_dict() == first[0].to_dict()
        assert isinstance(second[0], FaultExperimentResult)


class TestRendering:
    def test_table_has_one_row_per_point(self):
        results = [run_fault_experiment(_spec("baseline"))]
        table = render_fault_table(results)
        assert "baseline" in table
        assert len(table.splitlines()) == 3  # header, rule, one row


class TestCLI:
    def test_faults_flag_runs_matrix(self, capsys):
        status = sweep.main(
            [
                "--faults",
                "--no-cache",
                "--quiet",
                "--fault-scenario",
                "baseline",
                "--fault-scenario",
                "agg_crash",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "agg_crash" in out
