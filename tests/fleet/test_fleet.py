"""Fleet runs: end-to-end smoke, determinism across stacks and pools,
row streaming, and the chaos integration smoke.

The determinism tests extend the differential pattern of
``tests/sim/test_engine.py`` to the fleet layer: one seeded fleet executed
on the production stack, on the reference stack, with every component
scoped onto its chunked body and under a worker pool must produce a
byte-identical :meth:`~repro.fleet.runner.FleetResult.identity`.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.parallel import SweepRunner
from repro.experiments.resultcache import ResultCache
from repro.fleet import (
    FleetJobResult,
    FleetRowSpec,
    FleetSpec,
    fleet_job_specs,
    run_fleet,
    run_fleet_chaos,
)
from tests.conftest import quiet_faults

QUICK = 0.03125  # the CI quick scale used across the benchmark grids

SMOKE = FleetSpec(fleet_size=8, num_nodes=8, job_nodes=(1, 2), scale=QUICK)
AB = FleetSpec(fleet_size=64, scale=QUICK)


def identity_json(result) -> str:
    return json.dumps(result.identity(), sort_keys=True)


class TestFleetSmoke:
    def test_small_fleet_runs_clean(self):
        result = run_fleet(SMOKE)
        assert [r.job_id for r in result.jobs] == list(range(8))
        assert result.summary["jobs"] == 8
        assert result.summary["failed"] == 0
        assert result.makespan > 0
        assert result.events > 0

    def test_jobs_cycle_the_spec_axes(self):
        jobs = fleet_job_specs(SMOKE)
        assert {j.benchmark for j in jobs} == {"ior", "coll_perf", "flash_io"}
        assert {j.cache_mode for j in jobs} == {"enabled", "disabled"}
        assert {j.nodes for j in jobs} == {1, 2}

    def test_per_job_accounting_is_populated(self):
        result = run_fleet(SMOKE)
        for row in result.jobs:
            assert row.bytes_app > 0
            assert row.pfs_bytes > 0  # every job's tag reached the servers
            assert row.solo_wall > 0
            assert row.stretch >= 1.0 or row.queue_wait == 0.0
        cached = [r for r in result.jobs if r.cache_mode == "enabled"]
        direct = [r for r in result.jobs if r.cache_mode == "disabled"]
        assert all(r.bytes_flushed > 0 for r in cached)
        assert all(r.bytes_direct > 0 for r in direct)

    def test_fifo_never_backfills(self):
        fifo = run_fleet(replace(SMOKE, backfill=False))
        assert fifo.backfilled == 0


class TestFleetDeterminism:
    """One 64-job fleet, byte-identical under every execution variation."""

    @pytest.fixture(scope="class")
    def reference(self):
        return identity_json(run_fleet(AB))  # the production stack

    def test_reference_stack_matches(self, reference):
        """The reference stack: heapq engine, naive fabric, chunked plane."""
        assert identity_json(run_fleet(AB, reference=True)) == reference

    def test_injector_scoped_fallback_matches(self, reference):
        """Production with every device and server armed by a fault
        schedule that never fires: armed hooks change nothing."""
        quiet = quiet_faults(AB.cluster())
        assert identity_json(run_fleet(AB, faults=quiet)) == reference

    def test_pool_matches_serial(self, reference, tmp_path, monkeypatch):
        # A fleet's run streams its rows to the default cache: keep it here.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = SweepRunner(jobs=2, cache=ResultCache(enabled=False))
        (result,) = runner.run([AB])
        assert identity_json(result) == reference


class TestRowStreaming:
    def test_rows_stream_to_the_cache_as_jobs_complete(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        result = run_fleet(SMOKE, row_cache=cache)
        assert result.streamed_rows == 8
        cfg = SMOKE.cluster()
        row = cache.get(FleetRowSpec(SMOKE, 3), cfg)
        assert isinstance(row, FleetJobResult)
        assert row.job_id == 3
        assert row.to_dict() == result.jobs[3].to_dict()


class TestFleetChaos:
    def test_chaos_smoke_holds_invariants(self):
        result = run_fleet_chaos(fleet_size=8, seed=0, scale=QUICK)
        assert result.ok, result.violations
        assert result.faults_injected >= 1
        assert sum(result.statuses.values()) == 8
