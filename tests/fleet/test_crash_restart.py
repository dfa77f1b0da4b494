"""Job-scoped crash routing, restart-with-replay, and recovery SLOs.

Explicit (non-generated) crash schedules pin down the tentpole semantics:
an ``aggregator_crash`` addressed by ``job_index`` (nth job to register
ranks) or ``job`` (label) tears down exactly that job; the fleet's restart
policy re-queues it pinned to its original nodes, where the replay path
rewrites its journaled extents; and the per-job recovery SLOs hold.  The
determinism class extends the two-stack differential of ``test_fleet.py``
to a fleet that crashes and restarts mid-run.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments import sweep
from repro.faults import FaultSchedule, FaultSpec
from repro.fleet import (
    FleetSpec,
    evaluate_job_slo,
    resolve_fleet_config,
    run_fleet,
    run_fleet_chaos,
)
from tests.conftest import quiet_faults

QUICK = 0.03125  # the CI quick scale used across the benchmark grids

# Recovery budgets measured on the seeded 8-job crash trial (seed 1): it
# restarts in 0.0050 s, replays in 0.0095 s, is degraded for 0.0145 s and
# loses nothing.  About 4x headroom over each, far tighter than
# DEFAULT_RECOVERY_SLO: a restart that stalls or a replay that grinds fails.
MEASURED_SLO = {
    "time_to_restart_max": 0.02,
    "replay_duration_max": 0.04,
    "degraded_window_max": 0.06,
    "bytes_lost_cached_max": 0,
}

SMOKE = FleetSpec(fleet_size=8, num_nodes=8, job_nodes=(1, 2), scale=QUICK)
AB = FleetSpec(fleet_size=64, scale=QUICK)

# One crash per addressing mode, anchored on the first write milestone so
# the teardown lands while the job is still running.  Job 2 is
# cache-enabled (even id), so its restart exercises journal replay; j7 is
# cache-disabled, so its restart must work with nothing to replay.
CRASHES = FaultSchedule.of(
    FaultSpec(
        "aggregator_crash", target=0, on_event="write_done:0", delay=2e-4, job_index=2
    ),
    FaultSpec(
        "aggregator_crash", target=1, on_event="write_done:0", delay=2e-4, job="j7"
    ),
)
AB_CRASHES = FaultSchedule.of(
    FaultSpec(
        "aggregator_crash", target=0, on_event="write_done:0", delay=2e-4, job_index=10
    ),
    FaultSpec(
        "aggregator_crash", target=1, on_event="write_done:0", delay=2e-4, job="j32"
    ),
)


def identity_json(result) -> str:
    return json.dumps(result.identity(), sort_keys=True)


class TestCrashRestartReplay:
    """Both addressed jobs crash, restart pinned, replay, and finish ok."""

    @pytest.fixture(scope="class")
    def outcome(self):
        views = {}
        result = run_fleet(
            SMOKE,
            faults=CRASHES,
            on_complete=lambda job, view, row: views.__setitem__(job.job_id, view),
        )
        return result, views

    def test_only_the_addressed_jobs_crash(self, outcome):
        result, _ = outcome
        assert {r.job_id for r in result.jobs if r.first_crash_time > 0} == {2, 7}
        for row in result.jobs:
            if row.job_id not in (2, 7):
                assert row.restarts == 0
                assert row.time_to_restart == 0.0

    def test_crashed_jobs_restart_and_finish_ok(self, outcome):
        result, _ = outcome
        for job_id in (2, 7):
            row = result.jobs[job_id]
            assert row.status == "ok"
            assert row.restarts == 1
            assert row.time_to_restart > 0
            assert row.slo_ok, row.slo_violations

    def test_cached_job_replays_its_journals_losslessly(self, outcome):
        result, _ = outcome
        cached = result.jobs[2]
        assert cached.cache_mode == "enabled"
        assert cached.bytes_replayed > 0
        assert cached.bytes_lost == 0
        assert cached.degraded_window >= cached.time_to_restart

    def test_uncached_job_restarts_with_nothing_to_replay(self, outcome):
        result, _ = outcome
        direct = result.jobs[7]
        assert direct.cache_mode == "disabled"
        assert direct.bytes_replayed == 0
        assert direct.bytes_lost == 0

    def test_restart_is_pinned_to_the_original_placement(self, outcome):
        result, views = outcome
        # The JobView keeps its first-launch placement; the row records the
        # final incarnation's.  Equality means the restart landed on the
        # nodes that hold the job's journals — which is also the only way
        # the cached job's replay above could have found them.
        for job_id in (2, 7):
            assert result.jobs[job_id].placement == views[job_id].placement

    def test_exhausted_restart_budget_fails_the_job_without_losing_bytes(self):
        views = {}
        result = run_fleet(
            replace(SMOKE, max_restarts=0),
            faults=CRASHES,
            on_complete=lambda job, view, row: views.__setitem__(job.job_id, view),
        )
        for job_id in (2, 7):
            row = result.jobs[job_id]
            assert row.status == "failed"
            assert row.restarts == 0
            assert row.first_crash_time > 0
        # The failed cached job's unflushed extents stay journaled: nothing
        # reported lost beyond what the journals still hold.
        cached_unflushed = sum(
            j.unflushed_bytes for j in views[2].recovery.entries()
        )
        assert cached_unflushed > 0
        assert result.jobs[2].bytes_lost <= cached_unflushed
        assert result.summary["failed"] == 2


class TestCrashDeterminism:
    """One 64-job fleet with two crash+restart jobs, byte-identical under
    the reference stack and with every component on its chunked body."""

    @pytest.fixture(scope="class")
    def reference(self):
        result = run_fleet(AB, faults=AB_CRASHES)
        # The matrix is only meaningful if the seeded crashes actually fire
        # and drive the restart/replay machinery in the reference timeline.
        crashed = [r for r in result.jobs if r.first_crash_time > 0]
        assert len(crashed) == 2
        assert all(r.restarts == 1 and r.status == "ok" for r in crashed)
        assert any(r.bytes_replayed > 0 for r in crashed)
        return identity_json(result)

    def test_reference_stack_matches(self, reference):
        """The reference stack: heapq engine, naive fabric, chunked plane."""
        assert identity_json(run_fleet(AB, faults=AB_CRASHES, reference=True)) == reference

    def test_injector_scoped_fallback_matches(self, reference):
        """The crashes plus windows that never open on every device and
        server: hooks armed everywhere, and nothing else changes."""
        quiet = quiet_faults(resolve_fleet_config(AB))
        scoped = replace(AB_CRASHES, faults=AB_CRASHES.faults + quiet.faults)
        assert identity_json(run_fleet(AB, faults=scoped)) == reference


class TestChaosCrashTrial:
    """The seeded 8-job crash trial on both stacks (one generated
    job-addressed aggregator_crash, restart + journal replay)."""

    @pytest.fixture(scope="class")
    def trials(self):
        return [
            run_fleet_chaos(
                fleet_size=8,
                seed=1,
                scale=QUICK,
                crash_probability=1.0,
                reference=reference,
            )
            for reference in (False, True)
        ]

    def test_seeded_trial_is_identical_on_both_stacks(self, trials):
        production, reference = trials
        assert identity_json(production.fleet) == identity_json(reference.fleet)

    def test_generated_crash_schedule_recovers_within_slo(self, trials):
        for result in trials:
            assert result.ok, result.violations
            assert result.crashed_jobs >= 1
            assert result.restarts >= 1
            assert result.statuses.get("ok", 0) == 8
            assert sum(row.bytes_replayed for row in result.fleet.jobs) > 0
            for row in result.fleet.jobs:
                assert evaluate_job_slo(row, MEASURED_SLO) == []

    def test_zero_restart_budget_reports_failed_jobs(self):
        result = run_fleet_chaos(
            fleet_size=8, seed=1, scale=QUICK, crash_probability=1.0, max_restarts=0
        )
        assert result.ok, result.violations
        assert result.crashed_jobs >= 1
        assert result.restarts == 0
        assert result.statuses.get("failed", 0) == result.crashed_jobs


def test_a_trial_that_raises_is_a_fail_row_of_the_sweep(tmp_path, capsys, monkeypatch):
    """Seed 8's cascade crash raises ``FileNotFoundError`` out of
    ``run_fleet_chaos`` (two orphaned journals of one extent cache file
    replayed as if independent): the sweep reports it as a FAIL row with its
    repro line and exits 1 instead of dying with a traceback."""
    monkeypatch.setenv("REPRO_CACHE_KIND", "extent")  # not the CI leg's
    status = sweep.main(
        ["--fleet-chaos", "--base-seed", "8", "--seeds", "1", "--scale", str(QUICK)]
        + ["--cache-dir", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert status == 1
    assert "fleet-chaos seed 8: raised FileNotFoundError" in err and " FAIL" in err
    repro = "repro: PYTHONPATH=src python -m repro.experiments.sweep --fleet-chaos"
    assert f"{repro} --base-seed 8 --seeds 1 --scale {QUICK}" in err
    assert "Traceback" not in err
