"""Multi-job fleet layer: a job scheduler on top of one shared machine.

Hundreds of simulated jobs — each with its own ranks, hints, files, cache
extents and journals — are admitted through a seeded arrival process and a
FIFO/backfill scheduler into a *single* simulation, contending for the
shared PFS servers, fabric links and node SSDs.  See
:mod:`repro.fleet.runner` for the execution model and
:mod:`repro.fleet.view` for the isolation boundary.

Paper correspondence: none (fleet extension); generalises the paper's
single-job §IV measurements to a multi-tenant cluster.
"""

from repro.fleet.arrivals import arrival_times
from repro.fleet.chaos import FleetChaosResult, fleet_chaos_schedule, run_fleet_chaos
from repro.fleet.job import FleetJobSpec, build_job_workload, job_hints
from repro.fleet.metrics import (
    DEFAULT_RECOVERY_SLO,
    evaluate_job_slo,
    percentile,
    summarize_jobs,
)
from repro.fleet.runner import (
    FleetJobResult,
    FleetResult,
    FleetRowSpec,
    FleetSpec,
    fleet_job_specs,
    render_fleet_table,
    resolve_fleet_config,
    run_fleet,
)
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.view import JobView

__all__ = [
    "DEFAULT_RECOVERY_SLO",
    "FleetChaosResult",
    "FleetJobResult",
    "FleetJobSpec",
    "FleetResult",
    "FleetRowSpec",
    "FleetScheduler",
    "FleetSpec",
    "JobView",
    "arrival_times",
    "build_job_workload",
    "evaluate_job_slo",
    "fleet_chaos_schedule",
    "fleet_job_specs",
    "job_hints",
    "percentile",
    "render_fleet_table",
    "resolve_fleet_config",
    "run_fleet",
    "run_fleet_chaos",
    "summarize_jobs",
]
