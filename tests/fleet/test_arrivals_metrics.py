"""Arrival processes, fleet aggregate metrics and recovery SLOs."""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.fleet import (
    DEFAULT_RECOVERY_SLO,
    arrival_times,
    evaluate_job_slo,
    percentile,
    summarize_jobs,
)
from repro.fleet.runner import FleetJobResult
from repro.sim.rng import RngStreams


def make_row(job_id, status="ok", queue_wait=0.0, wall=1.0, stretch=1.0, bw=1.0):
    return FleetJobResult(
        job_id=job_id,
        benchmark="ior",
        cache_mode="enabled",
        nodes=1,
        num_ranks=2,
        placement=(0,),
        status=status,
        submit_time=0.0,
        start_time=queue_wait,
        end_time=queue_wait + wall,
        queue_wait=queue_wait,
        wall_time=wall,
        bandwidth=bw,
        solo_wall=wall,
        solo_bandwidth=1.0,
        stretch=stretch,
        degraded_bw=bw,
        bytes_app=0,
        bytes_flushed=0,
        bytes_direct=0,
        bytes_lost=0,
        fabric_bytes=0.0,
        pfs_rpcs=0,
        pfs_bytes=0,
    )


class TestArrivals:
    def test_poisson_is_seed_deterministic(self):
        a = arrival_times(RngStreams(7), 50, 0.01)
        b = arrival_times(RngStreams(7), 50, 0.01)
        assert a == b
        assert len(a) == 50
        assert all(t2 >= t1 for t1, t2 in zip(a, a[1:]))

    def test_different_seeds_differ(self):
        assert arrival_times(RngStreams(7), 10, 0.01) != arrival_times(
            RngStreams(8), 10, 0.01
        )

    def test_trace_gaps_cycle_and_accumulate(self):
        times = arrival_times(RngStreams(0), 5, 99.0, trace=(0.1, 0.2))
        assert times == pytest.approx([0.1, 0.3, 0.4, 0.6, 0.7])

    def test_negative_trace_gap_rejected(self):
        with pytest.raises(ValueError):
            arrival_times(RngStreams(0), 3, 1.0, trace=(0.1, -0.2))

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            arrival_times(RngStreams(0), 3, 0.0)


class TestPercentile:
    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 95) == 40.0
        assert percentile(values, 1) == 10.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 99) == 3.0


class TestSummary:
    def test_empty_fleet_yields_zeroes(self):
        s = summarize_jobs([])
        assert s["jobs"] == 0
        assert s["wall_p99"] == 0.0

    def test_failed_jobs_counted_but_excluded_from_walls(self):
        rows = [
            make_row(0, wall=1.0),
            make_row(1, wall=3.0),
            make_row(2, status="fault", queue_wait=5.0, wall=100.0),
        ]
        s = summarize_jobs(rows)
        assert s["jobs"] == 3
        assert s["ok"] == 2
        assert s["failed"] == 1
        assert s["wall_p99"] == 3.0  # the failed job's wall is excluded
        # ...but every job (failed or not) waits in the queue.
        assert s["queue_wait_max"] == 5.0



def crashed_row(**kw):
    """A cache-enabled row that crashed once and recovered inside budget."""
    timeline = dict(
        restarts=1,
        first_crash_time=0.01,
        time_to_restart=0.005,
        replay_duration=0.0095,
        degraded_window=0.0145,
        bytes_replayed=131072,
    )
    timeline.update(kw)
    return replace(make_row(0), **timeline)


class TestEvaluateJobSlo:
    def test_recovered_row_within_budget(self):
        assert evaluate_job_slo(crashed_row()) == []

    @pytest.mark.parametrize(
        "field", ["time_to_restart", "replay_duration", "degraded_window"]
    )
    def test_each_breached_timing_budget_names_itself(self, field):
        budget = DEFAULT_RECOVERY_SLO[f"{field}_max"]
        violations = evaluate_job_slo(crashed_row(**{field: 9.9}))
        assert violations == [f"job 0: {field} 9.900000s > budget {budget}s"]

    def test_crashless_row_skips_the_timing_budgets(self):
        row = crashed_row(
            first_crash_time=0.0,
            time_to_restart=9.9,
            replay_duration=9.9,
            degraded_window=9.9,
        )
        assert evaluate_job_slo(row) == []

    def test_lost_cached_bytes_fail_the_zero_budget(self):
        violations = evaluate_job_slo(crashed_row(bytes_lost=4096))
        assert violations == ["job 0: bytes_lost 4096 > budget 0 for cached writes"]

    def test_failed_row_is_outside_the_zero_loss_budget(self):
        assert evaluate_job_slo(crashed_row(status="failed", bytes_lost=4096)) == []

    def test_given_budgets_override_only_their_own_defaults(self):
        row = crashed_row(time_to_restart=0.05, bytes_lost=4096)
        violations = evaluate_job_slo(row, {"time_to_restart_max": 0.02})
        assert violations == [
            "job 0: time_to_restart 0.050000s > budget 0.02s",
            "job 0: bytes_lost 4096 > budget 0 for cached writes",
        ]


def test_a_row_dict_is_the_asdict_form_with_lists():
    """``FleetJobResult.to_dict`` (a flat copy) equals the recursive
    ``dataclasses.asdict`` form, key order included, and round-trips."""
    row = crashed_row(time_to_restart=9.9)
    row.placement = (3, 1, 2)
    row.slo_violations = tuple(evaluate_job_slo(row))
    assert row.slo_violations  # both tuples carry something
    want = asdict(row)
    want["placement"], want["slo_violations"] = [3, 1, 2], list(row.slo_violations)
    got = row.to_dict()
    assert got == want and list(got) == list(want)
    assert FleetJobResult.from_dict(got) == row
