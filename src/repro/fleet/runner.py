"""Fleet execution: many jobs, one shared simulated machine.

``run_fleet`` builds one :class:`~repro.machine.Machine`, draws the seeded
arrival timeline, and admits every job through the FIFO/backfill scheduler
into the *same* simulation.  Each admitted job runs inside a
:class:`~repro.fleet.view.JobView` (its own rank namespace, PFS clients,
journals and byte ledgers) while contending with every other job for the
shared PFS servers, fabric links and node SSDs.  A per-job supervisor
process mirrors the chaos harness's phase supervision: it waits on the
job's rank processes, classifies a failure (sync loss vs. injected fault),
interrupts the survivors, and releases the job's nodes back to the
scheduler.

Interference metrics compare each job against a memoized *solo reference* —
the same job alone on an identical, fresh cluster — giving queue wait,
stretch ((wait + wall) / solo wall) and degraded bandwidth (contended /
solo perceived bandwidth).

Per-job rows stream into the content-addressed result cache *as jobs
complete* (``row_cache``), so a partially finished fleet sweep already has
every completed job's row on disk; the fleet-level aggregate is cached by
the sweep runner like any other measurement point.

Determinism: one fleet point is one deterministic simulation — the
timeline is byte-identical on the production and the reference stack
(``run_fleet(reference=True)``); only the diagnostic ``events`` count
differs, and :meth:`FleetResult.identity` excludes it.

Paper correspondence: none (fleet extension); generalises the §IV
single-job measurements to a multi-tenant cluster.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.analysis.bandwidth import perceived_bandwidth
from repro.config import Checked, ClusterConfig, is_finite, is_whole, small_testbed
from repro.experiments.resultcache import ResultCache
from repro.faults.errors import abort_job, phase_status
from repro.faults.spec import FaultSchedule
from repro.fleet.arrivals import arrival_times
from repro.fleet.job import FleetJobSpec, JOB_BENCHMARKS, JOB_CACHE_MODES
from repro.fleet.metrics import evaluate_job_slo, summarize_jobs
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.view import JobView
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio.file import MPIIOLayer
from repro.sim.core import Event, Interrupt
from repro.workloads import small_hints, small_workload
from repro.workloads.phases import multi_phase_body


@dataclass(frozen=True)
class FleetSpec(Checked):
    """One fleet measurement point (frozen: hashable, cache-keyable).

    ``benchmark``/``cache_mode`` may name a single value or ``"mixed"``,
    which cycles the full axis across jobs; ``job_nodes`` cycles node
    requests the same way, so a default fleet mixes narrow and wide jobs.
    """

    fleet_size: int = 64
    num_nodes: int = 16
    procs_per_node: int = 2
    benchmark: str = "mixed"
    cache_mode: str = "mixed"
    arrival_mean: float = 0.002  # mean Poisson interarrival [sim s]
    arrival_trace: tuple = ()  # explicit interarrival gaps (overrides Poisson)
    backfill: bool = True
    job_nodes: tuple = (1, 2, 4)
    num_files: int = 2
    compute_delay: float = 0.02
    scale: float = 1.0
    seed: int = 2016
    # Restart policy for crashed jobs: a job killed by an injected
    # aggregator_crash re-enters the queue (pinned to its original nodes,
    # where its recovery journals live) after an exponentially backed-off
    # delay, up to ``max_restarts`` times; exhausting the budget marks it
    # ``failed`` with its journals left for the loss-bound audit.
    max_restarts: int = 2
    restart_backoff: float = 0.005  # base delay [sim s]; doubles per attempt

    _zero_ok = ("seed", "max_restarts")
    _positive = ("scale",)

    def __post_init__(self):
        super().__post_init__()
        if self.benchmark != "mixed" and self.benchmark not in JOB_BENCHMARKS:
            raise ValueError(
                f"benchmark={self.benchmark!r}: expected 'mixed' or one of "
                f"{JOB_BENCHMARKS}"
            )
        if self.cache_mode != "mixed" and self.cache_mode not in JOB_CACHE_MODES:
            raise ValueError(
                f"cache_mode={self.cache_mode!r}: expected 'mixed' or one of "
                f"{JOB_CACHE_MODES}"
            )
        if not isinstance(self.backfill, bool):
            raise ValueError(f"backfill={self.backfill!r}: must be a bool")
        for name, test, what in (
            ("job_nodes", is_whole, "whole numbers"),
            ("arrival_trace", lambda v: is_finite(v) and v >= 0, "finite gaps >= 0"),
        ):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)) or not all(test(v) for v in value):
                raise ValueError(f"{name}={value!r}: must be a sequence of {what}")
            object.__setattr__(self, name, tuple(value))
        if not self.job_nodes:
            raise ValueError("job_nodes: must name at least one node count")
        for n in self.job_nodes:
            if not 0 < n <= self.num_nodes:
                raise ValueError(
                    f"job_nodes entry {n}: outside the {self.num_nodes}-node cluster "
                    f"(num_nodes)"
                )

    @property
    def label(self) -> str:
        return f"f{self.fleet_size}"

    def cluster(self, config: Optional[ClusterConfig] = None) -> ClusterConfig:
        """The cluster the fleet runs on (an explicit config wins unchanged)."""
        if config is not None:
            return config
        return small_testbed(
            num_nodes=self.num_nodes, procs_per_node=self.procs_per_node, seed=self.seed
        )

    def run(self, config: Optional[ClusterConfig] = None, cache=None) -> "FleetResult":
        """The fleet, its rows streamed to ``cache`` (none without one)."""
        return run_fleet(self, config, row_cache=cache)


@dataclass(frozen=True)
class FleetRowSpec:
    """Cache key for one streamed per-job row: the fleet point + job id.

    ``faults``/``sync_rpc_timeout`` carry the fault schedule the fleet ran
    under (empty = fault-free), so a chaos fleet's rows never alias a
    fault-free fleet's rows for the same :class:`FleetSpec`.
    """

    fleet: FleetSpec
    job_id: int
    faults: tuple = ()
    sync_rpc_timeout: float = 0.0


@dataclass
class FleetJobResult:
    """One job's fleet outcome + interference metrics."""

    job_id: int
    benchmark: str
    cache_mode: str
    nodes: int
    num_ranks: int
    placement: tuple
    status: str  # "ok" | "loss" | "fault" | "failed" (crash budget spent)
    submit_time: float
    start_time: float
    end_time: float
    queue_wait: float
    wall_time: float
    bandwidth: float  # contended perceived bandwidth [B/s] (0 on failure)
    solo_wall: float
    solo_bandwidth: float
    stretch: float  # (queue_wait + wall_time) / solo_wall
    degraded_bw: float  # bandwidth / solo_bandwidth
    bytes_app: int
    bytes_flushed: int
    bytes_direct: int
    bytes_lost: int
    fabric_bytes: float  # fabric bytes moved under this job's tag
    pfs_rpcs: int  # data-server RPCs served under this job's tag
    pfs_bytes: int
    # Node-device ledgers under this job's tag (the fix for device stats
    # bleeding across jobs that share a node over time: cumulative device
    # totals are machine-lifetime, so each job reads its own tag instead).
    ssd_requests: int = 0
    ssd_bytes_written: int = 0
    ssd_bytes_read: int = 0
    nvmm_bytes_written: int = 0
    nvmm_bytes_read: int = 0
    # Crash/restart timeline (all zero for jobs that never crashed).  The
    # recovery-SLO layer (fleet/metrics.py) gates these per job.
    restarts: int = 0  # crash-triggered resubmissions that ran
    first_crash_time: float = 0.0  # sim time of the first crash (0 = none)
    time_to_restart: float = 0.0  # total crash -> next-incarnation-start [s]
    replay_duration: float = 0.0  # total journal-replay time on reopen [s]
    bytes_replayed: int = 0  # journal bytes rewritten to the global file
    degraded_window: float = 0.0  # time_to_restart + replay_duration
    slo_ok: bool = True  # evaluate_job_slo verdict under default budgets
    slo_violations: tuple = ()

    def to_dict(self) -> dict:
        d = {**self.__dict__, "placement": list(self.placement)}  # all else is a scalar
        d["slo_violations"] = list(self.slo_violations)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FleetJobResult":
        fields_ = dict(d)
        fields_["placement"] = tuple(fields_.get("placement", ()))
        fields_["slo_violations"] = tuple(fields_.get("slo_violations", ()))
        return cls(**fields_)


@dataclass
class FleetResult:
    """One fleet point: every job row plus scheduler/aggregate metrics."""

    spec: FleetSpec
    jobs: list = field(default_factory=list)  # FleetJobResult, by job_id
    makespan: float = 0.0  # last job end [sim s]
    summary: dict = field(default_factory=dict)  # summarize_jobs output
    backfilled: int = 0  # jobs started past a blocked FIFO head
    streamed_rows: int = 0  # per-job rows written to the row cache
    # Diagnostics — stack dependent, excluded from identity().
    events: int = 0
    stack: str = ""  # "production" | "reference"

    def identity(self) -> dict:
        """The determinism contract: everything but the diagnostics."""
        return {
            "spec": asdict(self.spec),
            "jobs": [j.to_dict() for j in self.jobs],
            "makespan": self.makespan,
            "summary": self.summary,
            "backfilled": self.backfilled,
        }

    def to_dict(self) -> dict:
        d = self.identity()
        d.update(
            streamed_rows=self.streamed_rows,
            events=self.events,
            stack=self.stack,
        )
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FleetResult":
        fields_ = dict(d)
        spec = dict(fields_["spec"])
        spec["arrival_trace"] = tuple(spec.get("arrival_trace", ()))
        spec["job_nodes"] = tuple(spec.get("job_nodes", ()))
        fields_["spec"] = FleetSpec(**spec)
        fields_["jobs"] = [FleetJobResult.from_dict(j) for j in fields_.get("jobs", [])]
        return cls(**fields_)


# What a fleet's run returns and what streams per job: the records the
# result cache decodes for each spec.
FleetSpec.record_type = FleetResult
FleetRowSpec.record_type = FleetJobResult


# -- spec expansion ----------------------------------------------------------
def fleet_job_specs(spec: FleetSpec) -> list[FleetJobSpec]:
    """The deterministic job list for a fleet (axes cycled per job id)."""
    benches = JOB_BENCHMARKS if spec.benchmark == "mixed" else (spec.benchmark,)
    modes = JOB_CACHE_MODES if spec.cache_mode == "mixed" else (spec.cache_mode,)
    return [
        FleetJobSpec(
            job_id=i,
            benchmark=benches[i % len(benches)],
            cache_mode=modes[i % len(modes)],
            nodes=spec.job_nodes[i % len(spec.job_nodes)],
            num_files=spec.num_files,
            compute_delay=spec.compute_delay,
            scale=spec.scale,
            seed=spec.seed,
        )
        for i in range(spec.fleet_size)
    ]


# -- job execution -----------------------------------------------------------
def _job_body(view: JobView, job: FleetJobSpec):
    """Generator: run one job inside its view; returns (status, bandwidth).

    Supervises the job like :func:`repro.experiments.faultsweep.run_job`:
    wait on every rank, and on failure classify it
    (:func:`~repro.faults.errors.phase_status`), interrupt the survivors
    with :class:`JobAborted`, and drain them so the job's nodes are
    genuinely idle when the caller releases them.
    """
    sim = view.sim
    world = MPIWorld(view)
    layer = MPIIOLayer(view, world.comm, driver="beegfs")
    workload = small_workload(job.benchmark, view.config.num_ranks, job.scale)
    # One aggregator per job node; the backend is left to REPRO_CACHE_KIND.
    hints = small_hints(
        job.nodes, job.cb_buffer, job.sync_chunk, job.cache_mode, job.flush_flag
    )
    body = multi_phase_body(
        layer,
        workload,
        hints,
        num_files=job.num_files,
        compute_delay=job.compute_delay,
        deferred_close=job.cache_mode == "enabled",
        file_prefix=f"/global/fleet/{view.job_label}/out_",
    )
    procs = world.spawn(body)
    try:
        timings = yield sim.all_of(procs)
    except (Interrupt, OSError) as exc:  # what phase_status classifies
        status = phase_status(exc)
        if status is None:
            raise
        # On a crash the injector's crash router already tore down exactly
        # this job's ranks and daemons; the supervisor decides whether the
        # restart budget covers a resubmission.
        cause = exc.cause if status == "crash" else exc
    else:
        bandwidth = perceived_bandwidth(
            timings,  # one entry per class of ranks: the maxima are the ranks'
            workload.file_size,
            include_last_phase=job.benchmark == "ior",
        )
        return "ok", bandwidth
    yield from abort_job(procs, view.daemons, cause)
    return status, 0.0


def _solo_reference(
    job: FleetJobSpec, config: ClusterConfig, reference: bool
) -> tuple[float, float]:
    """(wall, bandwidth) of the job alone on a fresh identical cluster."""
    machine = Machine(config, reference=reference)
    view = JobView(machine, job.job_id, tuple(range(job.nodes)), label="solo")
    out: dict[str, float] = {}

    def body():
        t0 = machine.sim.now
        status, bandwidth = yield from _job_body(view, job)
        out["wall"] = machine.sim.now - t0
        out["bandwidth"] = bandwidth if status == "ok" else 0.0

    machine.sim.run(until=machine.sim.process(body(), name="fleet.solo"))
    return out["wall"], out["bandwidth"]


# -- the fleet run -----------------------------------------------------------
def run_fleet(
    spec: FleetSpec,
    config: Optional[ClusterConfig] = None,
    reference: bool = False,
    trace: bool = False,
    faults: Optional[FaultSchedule] = None,
    row_cache: Optional[ResultCache] = None,
    on_complete: Optional[Callable] = None,
    on_machine: Optional[Callable] = None,
) -> FleetResult:
    """Run one fleet point to completion and return its result.

    ``reference`` runs the point (and its solo references) on the reference
    stack (see :class:`~repro.machine.Machine`): same ``identity()``.
    ``row_cache`` streams each :class:`FleetJobResult` to disk the moment
    its job completes; ``on_complete(job, view, row)`` additionally exposes
    the job's :class:`JobView` to callers that audit per-job state, and
    ``on_machine(machine)`` fires right after the shared machine is built —
    the fleet chaos smoke uses both to attach its invariant monitor and
    run its per-job byte-conservation audit.
    """
    cfg = spec.cluster(config)
    jobs = fleet_job_specs(spec)
    if faults is not None:
        faults.validate(
            num_nodes=cfg.num_nodes,
            num_servers=cfg.pfs.num_data_servers,
            num_ranks=cfg.num_ranks,
            num_files=spec.num_files,
            num_jobs=spec.fleet_size,
        )

    # Solo references first, one fresh machine per distinct job shape.
    solo: dict[tuple, tuple[float, float]] = {}
    for job in jobs:
        if job.shape_key not in solo:
            solo[job.shape_key] = _solo_reference(job, cfg, reference)

    machine = Machine(cfg, trace=trace, faults=faults, reference=reference)
    if on_machine is not None:
        on_machine(machine)
    sim = machine.sim
    submit_at: dict[int, float] = {}
    rows: dict[int, FleetJobResult] = {}
    # Per-job restart lifecycle.  The JobView is reused across incarnations
    # so the job's private recovery registry (and its byte ledgers) span the
    # crash: the restarted incarnation replays the journals the crashed one
    # left behind.
    views: dict[int, JobView] = {}
    lifecycle: dict[int, dict] = {}
    result = FleetResult(spec=spec, stack="reference" if reference else "production")
    fleet_done = Event(sim, name="fleet.done")
    row_key_extra = {}
    if faults is not None:
        row_key_extra = {
            "faults": faults.faults,
            "sync_rpc_timeout": faults.sync_rpc_timeout,
        }

    def _supervise(job: FleetJobSpec, view: JobView, placement):
        st = lifecycle.setdefault(
            job.job_id,
            {
                "restarts": 0,
                "first_start": None,
                "first_crash": 0.0,
                "crash_time": 0.0,
                "time_to_restart": 0.0,
            },
        )
        start = sim.now
        if st["first_start"] is None:
            st["first_start"] = start
        else:
            # This incarnation is a restart: the crash -> restart gap is the
            # job-down part of the recovery SLO.
            st["time_to_restart"] += start - st["crash_time"]
        # Tag the placement's node devices for the duration of ownership:
        # every SSD/NVMM request they serve is charged to this job's ledger
        # (nodes are exclusively owned, so the tag is unambiguous).
        tag = view.job_label
        for node_id in placement:
            node = machine.nodes[node_id]
            node.ssd.job_tag = tag
            node.nvmm.job_tag = tag
        try:
            status, bandwidth = yield from _job_body(view, job)
        finally:
            for node_id in placement:
                node = machine.nodes[node_id]
                node.ssd.job_tag = None
                node.nvmm.job_tag = None
        end = sim.now
        if status == "crash" and st["restarts"] < spec.max_restarts:
            st["restarts"] += 1
            st["crash_time"] = end
            if not st["first_crash"]:
                st["first_crash"] = end
            scheduler.release(placement)
            sim.process(
                _resubmit(job, placement, st["restarts"]),
                name=f"fleet.{job.label}.restart{st['restarts']}",
            )
            return
        if status == "crash":
            # Retry budget exhausted: the job is failed for good.  Its
            # journals stay registered — the loss-bound audit (and the
            # quiescent conservation equations) account every byte they
            # still hold.
            status = "failed"
            if not st["first_crash"]:
                st["first_crash"] = end
        if machine.faults is not None:
            machine.faults.deregister_job(view.job_label)
        solo_wall, solo_bw = solo[job.shape_key]
        first_start = st["first_start"]
        queue_wait = first_start - submit_at[job.job_id]
        wall = end - first_start  # spans crash + restart churn, by design
        replay_duration = view.recovery.recovery_time
        servers = machine.pfs.servers
        ssds = [machine.nodes[n].ssd for n in placement]
        nvmms = [machine.nodes[n].nvmm for n in placement]
        row = FleetJobResult(
            job_id=job.job_id,
            benchmark=job.benchmark,
            cache_mode=job.cache_mode,
            nodes=job.nodes,
            num_ranks=view.config.num_ranks,
            placement=placement,
            status=status,
            submit_time=submit_at[job.job_id],
            start_time=first_start,
            end_time=end,
            queue_wait=queue_wait,
            wall_time=wall,
            bandwidth=bandwidth,
            solo_wall=solo_wall,
            solo_bandwidth=solo_bw,
            stretch=(queue_wait + wall) / solo_wall if solo_wall > 0 else 0.0,
            degraded_bw=bandwidth / solo_bw if solo_bw > 0 else 0.0,
            bytes_app=view.io_stats["bytes_app"],
            bytes_flushed=view.io_stats["bytes_flushed"],
            bytes_direct=view.io_stats["bytes_direct"],
            bytes_lost=view.io_stats["bytes_lost"],
            fabric_bytes=machine.fabric.bytes_moved_by_tag.get(view.job_label, 0.0),
            pfs_rpcs=sum(s.rpcs_by_tag.get(view.job_label, 0) for s in servers),
            pfs_bytes=sum(s.bytes_by_tag.get(view.job_label, 0) for s in servers),
            ssd_requests=sum(d.requests_by_tag.get(tag, 0) for d in ssds),
            ssd_bytes_written=sum(d.bytes_written_by_tag.get(tag, 0) for d in ssds),
            ssd_bytes_read=sum(d.bytes_read_by_tag.get(tag, 0) for d in ssds),
            nvmm_bytes_written=sum(d.bytes_written_by_tag.get(tag, 0) for d in nvmms),
            nvmm_bytes_read=sum(d.bytes_read_by_tag.get(tag, 0) for d in nvmms),
            restarts=st["restarts"],
            first_crash_time=st["first_crash"],
            time_to_restart=st["time_to_restart"],
            replay_duration=replay_duration,
            bytes_replayed=view.io_stats["bytes_replayed"],
            degraded_window=st["time_to_restart"] + replay_duration,
        )
        row.slo_violations = tuple(evaluate_job_slo(row))
        row.slo_ok = not row.slo_violations
        rows[job.job_id] = row
        if row_cache is not None:
            key = FleetRowSpec(spec, job.job_id, **row_key_extra)
            if row_cache.put(key, cfg, row) is not None:
                result.streamed_rows += 1
        if on_complete is not None:
            on_complete(job, view, row)
        scheduler.release(placement)
        if len(rows) == len(jobs):
            fleet_done.succeed()

    def _resubmit(job: FleetJobSpec, placement, attempt: int):
        # Exponential backoff, then re-enter the queue pinned to the nodes
        # that hold this job's recovery journals.
        yield sim.timeout(spec.restart_backoff * (2.0 ** (attempt - 1)))
        scheduler.submit(job, pinned=placement)

    def _launch(job: FleetJobSpec, placement):
        view = views.get(job.job_id)
        if view is None:
            view = JobView(machine, job.job_id, placement)
            views[job.job_id] = view
        sim.process(_supervise(job, view, placement), name=f"fleet.{job.label}")

    scheduler = FleetScheduler(cfg.num_nodes, _launch, backfill=spec.backfill)
    times = arrival_times(
        machine.rng, len(jobs), spec.arrival_mean, spec.arrival_trace
    )

    def _arrivals():
        for when, job in zip(times, jobs):
            delay = when - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            submit_at[job.job_id] = sim.now
            scheduler.submit(job)

    sim.process(_arrivals(), name="fleet.arrivals")
    sim.run(until=fleet_done)

    result.jobs = [rows[i] for i in sorted(rows)]
    result.makespan = max(r.end_time for r in result.jobs)
    result.summary = summarize_jobs(result.jobs)
    result.backfilled = scheduler.backfilled
    result.events = sim.events_fired
    return result


# -- reporting ---------------------------------------------------------------
def render_fleet_table(results) -> str:
    """One row per fleet point: scheduler + interference aggregates."""
    header = (
        f"{'fleet':>6s} {'jobs':>5s} {'fail':>4s} {'makespan':>9s} "
        f"{'wait.avg':>9s} {'wall.p50':>9s} {'wall.p95':>9s} {'wall.p99':>9s} "
        f"{'stretch.p95':>11s} {'bw.degr':>8s} {'backfill':>8s}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        s = r.summary
        lines.append(
            f"{r.spec.label:>6s} {s['jobs']:>5d} {s['failed']:>4d} "
            f"{r.makespan:>9.4f} {s['queue_wait_mean']:>9.4f} "
            f"{s['wall_p50']:>9.4f} {s['wall_p95']:>9.4f} {s['wall_p99']:>9.4f} "
            f"{s['stretch_p95']:>11.2f} {s['degraded_bw_mean']:>8.3f} "
            f"{r.backfilled:>8d}"
        )
    return "\n".join(lines)
