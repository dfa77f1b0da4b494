"""Per-job device attribution in fleet runs.

Fleet jobs share one machine, so device totals alone cannot say which job
aged which SSD.  ``_supervise`` tags the placement's devices with the job
label for the job's lifetime; rows then read the per-tag ledgers.  These
tests pin the contract: cache-enabled jobs attribute bytes, disabled jobs
attribute none, the tags are cleared between jobs, and the per-job sums
never exceed the device totals."""

from __future__ import annotations

from dataclasses import replace

from repro.fleet import FleetSpec, run_fleet

SMOKE = FleetSpec(fleet_size=8, num_nodes=8, job_nodes=(1, 2), scale=0.03125)


class TestDeviceLedger:
    def test_cache_enabled_jobs_attribute_ssd_traffic(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_KIND", "extent")  # not the CI leg's
        result = run_fleet(SMOKE)
        for job in result.jobs:
            if job.status != "ok":
                continue
            if job.cache_mode == "enabled":
                assert job.ssd_bytes_written > 0, job.job_id
                assert job.ssd_requests > 0, job.job_id
                assert job.nvmm_bytes_written == 0, job.job_id
            else:
                assert job.ssd_bytes_written == 0, job.job_id
                assert job.ssd_bytes_read == 0, job.job_id

    def test_nvmm_fleet_attributes_wal_traffic(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_KIND", "nvmm")
        result = run_fleet(SMOKE)
        for job in result.jobs:
            if job.status != "ok":
                continue
            if job.cache_mode == "enabled":
                assert job.nvmm_bytes_written > 0, job.job_id
                assert job.ssd_bytes_written == 0, job.job_id
            else:
                assert job.nvmm_bytes_written == 0, job.job_id

    def test_attribution_is_deterministic(self):
        a = run_fleet(SMOKE)
        b = run_fleet(SMOKE)
        key = lambda r: (r.ssd_requests, r.ssd_bytes_written, r.ssd_bytes_read)
        assert [key(r) for r in a.jobs] == [key(r) for r in b.jobs]

    def test_rows_serialise_with_ledger_fields(self):
        result = run_fleet(replace(SMOKE, fleet_size=4))
        row = result.jobs[0].to_dict()
        for field in ("ssd_requests", "ssd_bytes_written", "ssd_bytes_read",
                      "nvmm_bytes_written", "nvmm_bytes_read"):
            assert field in row
