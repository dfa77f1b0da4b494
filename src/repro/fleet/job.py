"""Per-job specifications for fleet runs.

A :class:`FleetJobSpec` is one job's shape: benchmark, node count, cache
mode and workload sizing.  Jobs are generated deterministically from the
fleet spec by cycling the configured axes (node counts, cache modes,
benchmarks), so two fleets with the same spec contain byte-identical jobs.

Workload and hint construction mirrors the fault sweep's tiny-but-real
configurations (:mod:`repro.experiments.faultsweep`), minus the data
payloads: fleet conservation audits use the per-job byte ledgers, not
checksums, so carrying real bytes would only slow a 256-job fleet down.

Paper correspondence: §IV benchmarks (IOR, coll_perf, Flash-IO) as the job
mix; Table I/II hints per job.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import KiB
from repro.workloads import small_workload

#: Benchmarks a fleet job may run; "mixed" in a FleetSpec cycles these.
JOB_BENCHMARKS = ("ior", "coll_perf", "flash_io")

#: Cache modes a fleet job may use; "mixed" cycles these.  "coherent" is
#: deliberately absent: fleet quiescence audits per-job journals, and the
#: coherent mode's stripe locks belong to the shared PFS (cross-job state).
JOB_CACHE_MODES = ("enabled", "disabled")


@dataclass(frozen=True)
class FleetJobSpec:
    """One job's shape inside a fleet (frozen: usable in cache keys)."""

    job_id: int
    benchmark: str = "ior"
    cache_mode: str = "enabled"  # "enabled" | "disabled"
    flush_flag: str = "flush_onclose"
    nodes: int = 1  # nodes requested from the allocator
    num_files: int = 2
    compute_delay: float = 0.02
    cb_buffer: int = 256 * KiB
    sync_chunk: int = 64 * KiB
    scale: float = 1.0
    seed: int = 2016

    def __post_init__(self):
        if self.benchmark not in JOB_BENCHMARKS:
            raise ValueError(
                f"job {self.job_id}: unknown benchmark {self.benchmark!r}; "
                f"expected one of {JOB_BENCHMARKS}"
            )
        if self.cache_mode not in JOB_CACHE_MODES:
            raise ValueError(
                f"job {self.job_id}: unknown cache mode {self.cache_mode!r}; "
                f"expected one of {JOB_CACHE_MODES}"
            )
        if self.nodes <= 0:
            raise ValueError(f"job {self.job_id}: nodes must be positive, got {self.nodes}")

    @property
    def label(self) -> str:
        return f"j{self.job_id}"

    @property
    def shape_key(self) -> tuple:
        """Everything but the job id — keys the solo-reference memo."""
        return (
            self.benchmark,
            self.cache_mode,
            self.flush_flag,
            self.nodes,
            self.num_files,
            self.compute_delay,
            self.cb_buffer,
            self.sync_chunk,
            self.scale,
            self.seed,
        )


def build_job_workload(job: FleetJobSpec, nprocs: int):
    """The job's per-file recipe (no data payloads; ledgers audit bytes)."""
    return small_workload(job.benchmark, nprocs, job.scale)


def job_hints(job: FleetJobSpec) -> dict[str, str]:
    """Table I/II hint strings for one job (one aggregator per job node)."""
    hints = {
        "cb_nodes": str(job.nodes),
        "cb_buffer_size": str(job.cb_buffer),
        "romio_cb_write": "enable",
        "striping_unit": str(256 * KiB),
        "striping_factor": "4",
        "ind_wr_buffer_size": str(job.sync_chunk),
    }
    if job.cache_mode == "enabled":
        hints.update(
            e10_cache="enable",
            e10_cache_flush_flag=job.flush_flag,
            e10_cache_discard_flag="enable",
        )
    return hints
