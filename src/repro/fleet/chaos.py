"""Fleet × chaos integration: a multi-job fleet under random faults.

One seeded schedule from the chaos generator — windowed *infrastructure*
faults (SSD error windows, device losses, server stalls, link degradation)
plus job-addressed *crash* faults — runs against a small fleet on one
shared machine, with:

* the machine-level :class:`~repro.chaos.invariants.InvariantMonitor`
  attached (stripe-lock coherence, the no-progress watchdog, and the
  machine ledgers — identically zero in a fleet, where every byte is
  accounted in per-job views);
* a **per-job byte-conservation audit**: each completed job's private
  ``io_stats`` ledger and journal registry must close the same conservation
  equations the single-job monitor checks — application bytes split exactly
  into cached + direct, cached bytes leave exactly once (flushed, replayed,
  discarded, or still journaled), and reported losses never exceed what the
  journals still hold;
* a **per-job recovery-SLO assertion**
  (:func:`~repro.fleet.metrics.evaluate_job_slo`): a crashed job must
  restart, replay its private journals, and finish with zero lost bytes
  for cached writes, all within the recovery budgets.

Crash faults route through the injector's *job-scoped* rank registry: each
fleet job registers its ranks and sync-thread daemons under its label, and
a generated ``aggregator_crash`` carries a ``job_index`` that addresses
exactly one job — the teardown interrupts that job's processes only, other
jobs see it purely as contention.  The crashed job re-enters the queue
under the fleet's restart policy (exponential backoff, pinned to the nodes
holding its journals, bounded retries) and replays its unflushed extents on
reopen — the paper's crash-recovery argument, exercised in a multi-tenant
cluster.  The infra fault kinds act on *physical* targets (nodes, servers,
links), which is exactly what a shared cluster degrades.

Paper correspondence: none (robustness harness for the fleet extension).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.chaos.generate import ChaosConfig, generate_schedule
from repro.chaos.invariants import InvariantMonitor, byte_conservation
from repro.config import ClusterConfig
from repro.fleet.metrics import evaluate_job_slo
from repro.fleet.runner import FleetResult, FleetSpec, resolve_fleet_config, run_fleet


@dataclass
class FleetChaosResult:
    """Outcome of one fleet chaos trial."""

    seed: int
    fleet: FleetResult
    violations: list = field(default_factory=list)
    faults_injected: int = 0
    statuses: dict = field(default_factory=dict)  # status -> job count
    crashed_jobs: int = 0  # jobs the schedule actually tore down
    restarts: int = 0  # crash-triggered resubmissions across the fleet

    @property
    def ok(self) -> bool:
        return not self.violations


def fleet_chaos_schedule(
    spec: FleetSpec,
    config: ClusterConfig,
    seed: int,
    max_faults: int = 3,
    crash_probability: float = 0.35,
):
    """A seeded schedule sized to the fleet cluster.  Crash specs carry a
    ``job_index`` drawn from the fleet size, so each crash addresses exactly
    one (seeded-random) job through the injector's job-scoped registry."""
    chaos_cfg = ChaosConfig(
        num_nodes=config.num_nodes,
        num_servers=config.pfs.num_data_servers,
        num_ranks=config.num_ranks,
        num_files=spec.num_files,
        max_faults=max_faults,
        crash_probability=crash_probability,
        num_jobs=spec.fleet_size,
    )
    return generate_schedule(chaos_cfg, seed)


def audit_job_conservation(label: str, io: dict, journals) -> list[str]:
    """Per-job byte-conservation violations (empty list = clean).

    The single-job monitor's quiescent equations
    (:func:`~repro.chaos.invariants.byte_conservation`), applied to one
    job's private ledger and journal registry.
    """
    return [f"job {label}: {m}" for m in byte_conservation(io, journals)]


def run_fleet_chaos(
    fleet_size: int = 8,
    seed: int = 0,
    scale: float = 1.0,
    max_faults: int = 3,
    config: Optional[ClusterConfig] = None,
    fleet_seed: int = 2016,
    crash_probability: float = 0.35,
    max_restarts: int = 2,
    row_cache=None,
    reference: bool = False,
) -> FleetChaosResult:
    """Run one fleet chaos trial; violations make ``result.ok`` false.

    ``crash_probability``/``max_restarts`` parameterise the job-addressed
    crash draws and the fleet's restart budget; ``row_cache`` streams each
    job's row (restart counts and SLO verdicts included) to disk as it
    completes, keyed by the fleet point *and* the fault schedule.
    """
    spec = FleetSpec(
        fleet_size=fleet_size,
        num_nodes=8,
        procs_per_node=2,
        job_nodes=(1, 2),
        scale=scale,
        seed=fleet_seed,
        max_restarts=max_restarts,
    )
    cfg = resolve_fleet_config(spec, config)
    schedule = fleet_chaos_schedule(
        spec, cfg, seed, max_faults=max_faults, crash_probability=crash_probability
    )
    violations: list[str] = []
    statuses: dict[str, int] = {}
    state: dict = {}
    finished: list = []

    def on_machine(machine):
        monitor = InvariantMonitor(machine)
        monitor.watch()
        state["machine"] = machine
        state["monitor"] = monitor

    def on_complete(job, view, row):
        statuses[row.status] = statuses.get(row.status, 0) + 1
        # Completed-job snapshot: the inflow equation and loss bound must
        # already hold; the outflow equation is re-audited at quiescence
        # (an aborted job's background flush may still be in flight here).
        finished.append((view.job_label, view, row))

    fleet = run_fleet(
        spec,
        config=cfg,
        reference=reference,
        faults=schedule,
        row_cache=row_cache,
        on_complete=on_complete,
        on_machine=on_machine,
    )
    monitor = state["monitor"]
    monitor.audit()
    violations.extend(monitor.violations)
    crashed_jobs = 0
    restarts = 0
    for label, view, row in finished:
        violations.extend(
            audit_job_conservation(label, view.io_stats, view.recovery.entries())
        )
        # Recovery SLOs, per job: a crashed job must come back, replay its
        # journals, and (when cached and "ok") lose nothing.
        violations.extend(evaluate_job_slo(row))
        if row.first_crash_time > 0:
            crashed_jobs += 1
        restarts += row.restarts
    return FleetChaosResult(
        seed=seed,
        fleet=fleet,
        violations=violations,
        faults_injected=len(schedule.faults),
        statuses=statuses,
        crashed_jobs=crashed_jobs,
        restarts=restarts,
    )
