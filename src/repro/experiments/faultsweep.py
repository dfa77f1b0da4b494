"""Fault-matrix experiments: Table-II configurations under injected faults.

Each measurement point compares two runs of a small multi-phase workload on
identical cluster configs: one fault-free (the *reference*, for its
bandwidth) and one under a :class:`~repro.faults.FaultSchedule`.  The
reference does not depend on the scenario, so a process simulates it once
per workload shape and recalls it for every other scenario of that shape
(:data:`reference_memo`); the run under the schedule is always simulated,
and a production ``baseline`` run (an empty schedule: the reference's very
machine) is memoised as the reference when none is.  Every run — the
reference, the faulted run and a chaos trial's runs alike — is one job
lifecycle, :func:`run_job`: if the faulted job is killed by an injected
aggregator crash, *recovery jobs* re-open every file on the same machine —
the collective open replays orphaned cache extents — until one converges
(a cascade can kill a recovery job too), and the point reports recovery
time and bytes replayed.  End-to-end integrity is checked against the
workload itself (:func:`~repro.chaos.invariants.verify_files`): every
global file of the recovered (or degraded) job must persist exactly the
bytes its access tables cover, and any bytes it stores must be the payload
function's.

Workloads here are deliberately tiny (tens of KiB per rank); the point is
correctness under faults, not the paper's bandwidth figures.  Results flow
through the same
:class:`~repro.experiments.parallel.SweepRunner` / result-cache machinery as
the Table-II sweeps, so fault matrices are cached, deduplicated, and
byte-identical between serial and ``--jobs N`` execution.

Paper correspondence: none — an extension hardening the §III cache
against injected faults (see DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.analysis.bandwidth import perceived_bandwidth
from repro.config import Checked, ClusterConfig, small_testbed
from repro.experiments.resultcache import cache_key
from repro.faults import FaultSchedule, FaultSpec
from repro.faults.errors import abort_job, phase_status
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.payload import payload_key
from repro.romio.file import MPIIOLayer
from repro.options import CACHE_KINDS
from repro.sim.core import Interrupt
from repro.units import KiB
from repro.workloads import small_hints, small_workload
from repro.workloads.phases import multi_phase_body

FAULT_BENCHMARKS = ("coll_perf", "flash_io", "ior")
FAULT_CACHE_MODES = ("disabled", "enabled", "coherent")

#: Recovery jobs a crashed run gets before it is declared unrecovered.
#: Cascades kill at most one recovery job per armed spec, so two would do;
#: the margin covers transient fault windows that outlive the first
#: recovery too.
MAX_RECOVERY_ATTEMPTS = 5

#: The default fault matrix, in presentation order.
SCENARIOS = (
    "baseline",
    "ssd_flaky",
    "server_stall",
    "link_degraded",
    "ssd_loss",
    "gc_pressure",
    "nvmm_torn",
    "agg_crash",
)


class FaultPoint(Checked):
    """What a fault-matrix point and a chaos trial check alike: their
    numbers (``scale`` > 0), and a benchmark, cache mode and cache kind the
    fault harness runs."""

    _positive = ("scale",)

    def __post_init__(self):
        super().__post_init__()
        if self.benchmark not in FAULT_BENCHMARKS:
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        if self.cache_mode not in FAULT_CACHE_MODES:
            raise ValueError(f"unknown cache mode {self.cache_mode!r}")
        if self.cache_kind not in CACHE_KINDS:
            raise ValueError(f"unknown cache kind {self.cache_kind!r}")
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))


@dataclass(frozen=True)
class FaultExperimentSpec(FaultPoint):
    """One fault-matrix point: a workload config plus a fault schedule."""

    benchmark: str
    scenario: str = "baseline"
    faults: tuple = ()
    sync_rpc_timeout: float = 0.0
    cache_mode: str = "enabled"
    cache_kind: str = "extent"  # cache backend: extent file or NVMM WAL
    flush_flag: str = "flush_onclose"
    aggregators: int = 4
    cb_buffer: int = 256 * KiB
    sync_chunk: int = 64 * KiB
    num_nodes: int = 4
    procs_per_node: int = 2
    num_files: int = 2
    compute_delay: float = 0.05
    scale: float = 1.0
    seed: int = 2016

    _zero_ok = ("seed",)

    @property
    def label(self) -> str:
        return f"{self.scenario}/{self.cache_mode}"

    def scaled(self, **kw) -> "FaultExperimentSpec":
        return replace(self, **kw)

    def cluster(self, config: Optional[ClusterConfig] = None) -> ClusterConfig:
        """The cluster the point runs on (an explicit config wins unchanged)."""
        if config is not None:
            return config
        return small_testbed(
            num_nodes=self.num_nodes, procs_per_node=self.procs_per_node, seed=self.seed
        )

    def run(self, config: Optional[ClusterConfig] = None) -> "FaultExperimentResult":
        return run_fault_experiment(self, config)


@dataclass
class FaultExperimentResult:
    """Outcome of one fault-matrix point."""

    spec: FaultExperimentSpec
    integrity_ok: bool  # faulted/recovered files hold what the workload wrote
    crashed: bool  # the faulted job was killed by an injected crash
    recovered: bool  # converged within MAX_RECOVERY_ATTEMPTS (implies crashed)
    bw_ref: float  # fault-free perceived bandwidth [B/s]
    bw_faulted: float  # perceived bandwidth under faults (0.0 if crashed)
    recovery_time: float  # sim seconds spent replaying orphaned extents
    bytes_replayed: int
    files_recovered: int
    retries: int  # sync-thread transient-fault retries
    requeues: int  # sync requests re-queued after exhausted retries
    sync_failures: int  # sync requests abandoned entirely
    degraded: int  # cache states that fell back to direct writes
    faults_injected: int
    integrity_violations: list = field(default_factory=list)  # from verify_files
    events: int = 0  # kernel events fired in the faulted run
    invariant_violations: list = field(default_factory=list)  # from the monitor

    @property
    def degraded_bw_ratio(self) -> float:
        """Faulted / reference bandwidth (0.0 when the faulted job died)."""
        return self.bw_faulted / self.bw_ref if self.bw_ref > 0 else 0.0

    def to_dict(self) -> dict:
        d = asdict(self)
        d["spec"] = asdict(self.spec)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultExperimentResult":
        fields_ = dict(d)
        spec = dict(fields_["spec"])
        spec["faults"] = tuple(FaultSpec.from_dict(f) for f in spec.get("faults", ()))
        fields_["spec"] = FaultExperimentSpec(**spec)
        return cls(**fields_)


# What FaultExperimentSpec.run returns, and what the result cache decodes.
FaultExperimentSpec.record_type = FaultExperimentResult


# -- the job ---------------------------------------------------------------
def _file_prefix(spec: FaultExperimentSpec) -> str:
    return f"/global/fault_{spec.benchmark}_{spec.scenario}_{spec.cache_mode}_"


# -- the fault-free reference ------------------------------------------------
@dataclass(frozen=True)
class FaultFreeReference:
    """What a point keeps of its fault-free twin."""

    bw: float  # perceived bandwidth [B/s]
    violations: tuple = ()  # the invariant monitor's


class _ReferenceMemo:
    """Fault-free references this process has simulated, oldest dropped first.

    Every scenario of a fault matrix and every seed of a chaos batch that
    share a workload shape share one reference (:func:`reference_key`); an
    entry is a float and the audit's violations.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.hits = self.misses = 0
        self._refs: dict[tuple, FaultFreeReference] = {}

    def __len__(self) -> int:
        return len(self._refs)

    def get(self, key: tuple) -> Optional[FaultFreeReference]:
        ref = self._refs.get(key)
        if ref is None:
            self.misses += 1
        else:
            self.hits += 1
        return ref

    def put(self, key: tuple, ref: FaultFreeReference) -> None:
        if len(self._refs) >= self.maxsize:
            del self._refs[next(iter(self._refs))]
        self._refs[key] = ref

    def clear(self) -> None:
        self._refs.clear()
        self.hits = self.misses = 0


reference_memo = _ReferenceMemo(maxsize=64)


def reference_key(spec: FaultExperimentSpec, config: ClusterConfig) -> str:
    """Content address of a point's fault-free reference: every spec and
    config field except the three that only describe the fault schedule
    (the scenario name reaches the reference through file names alone)."""
    return cache_key(
        replace(spec, scenario="", faults=(), sync_rpc_timeout=0.0), config
    )


def phase_body(spec: FaultExperimentSpec, layer, workload, prefix: str):
    """The rank body every run of a point executes: its files, phase by phase."""
    return multi_phase_body(
        layer,
        workload,
        small_hints(
            spec.aggregators,
            spec.cb_buffer,
            spec.sync_chunk,
            spec.cache_mode,
            spec.flush_flag,
            spec.cache_kind,
        ),
        num_files=spec.num_files,
        compute_delay=spec.compute_delay,
        deferred_close=spec.cache_mode != "disabled",
        file_prefix=prefix,
    )


def recovery_body(layer, paths: list[str]):
    """The rank body of a recovery job: re-open each of ``paths``
    collectively — the open replays orphaned cache extents — then close."""

    def body(ctx):
        for path in paths:
            fh = yield from layer.open(ctx.rank, path, {})
            yield from fh.close()

    return body


def fault_schedule(spec, cfg: ClusterConfig) -> FaultSchedule:
    """A point's explicit schedule, validated against the cluster and the
    workload's files before any machine is built (a bad target or a
    ``write_done`` anchor past the last file fails fast as ValueError)."""
    return FaultSchedule(
        faults=spec.faults, sync_rpc_timeout=spec.sync_rpc_timeout
    ).validate(
        num_nodes=cfg.num_nodes,
        num_servers=cfg.pfs.num_data_servers,
        num_ranks=cfg.num_ranks,
        num_files=spec.num_files,
    )


def run_job(
    machine: Machine,
    spec: FaultExperimentSpec,
    workload,
    prefix: str,
    watchdog: bool = False,
) -> tuple[Optional[list], dict]:
    """Run a point's job on ``machine``: spawn its phase body, classify how
    the phase ended (:func:`~repro.faults.errors.phase_status`), tear a
    ``loss`` or ``fault`` down (:func:`~repro.faults.errors.abort_job`),
    after a crash run recovery jobs on the same machine (the cluster
    survives, only the MPI job died) until one converges or
    :data:`MAX_RECOVERY_ATTEMPTS` are spent, then audit
    (:meth:`~repro.chaos.invariants.InvariantMonitor.audit`) and check the
    files (:func:`~repro.chaos.invariants.verify_files`: each holds the
    workload's coverage, its stored bytes the payload of the machine's seed
    and its path).  Returns ``(timings, snapshot)``: the phase's per-rank
    timings (None unless it ended ``ok``) and every simulated quantity two
    stacks must agree on.  ``watchdog`` arms the no-progress watchdog
    before each phase (the chaos harness): diagnostic events only.
    """
    from repro.chaos.invariants import InvariantMonitor, verify_files  # circular at top

    sim = machine.sim
    monitor = InvariantMonitor(machine)
    paths = [f"{prefix}{k}" for k in range(spec.num_files)]

    def phase(body_of):
        world = MPIWorld(machine)
        body = body_of(
            MPIIOLayer(machine, world.comm, driver="beegfs", exchange_mode="model")
        )
        if watchdog:
            monitor.watch()
        procs = world.spawn(body)
        try:
            return "ok", world.per_rank(sim.run(until=sim.all_of(procs)))
        except (Interrupt, OSError) as exc:  # what phase_status classifies
            status = phase_status(exc)
            if status is None:
                raise
            if status != "crash":  # the injector tore a crashed job down
                teardown = abort_job(procs, machine.daemons, exc)
                sim.run(until=sim.process(teardown, name="teardown"))
        return status, None

    status, timings = phase(lambda layer: phase_body(spec, layer, workload, prefix))
    data_loss = status == "loss"
    if status == "fault":
        # The main write path has its own degradation fallbacks; a FaultError
        # escaping it is a bug, not a legitimate outcome.
        monitor.record("FaultError escaped the main write phase")
    crashes = int(status == "crash")  # phases that ended in a crash
    attempts = 0
    while status == "crash" and attempts < MAX_RECOVERY_ATTEMPTS:
        attempts += 1
        live = [p for p in paths if machine.pfs.exists(p)]
        status, _ = phase(lambda layer: recovery_body(layer, live))
        data_loss = data_loss or status == "loss"
        if status == "fault":
            # A transient window outlived the crash and hit the replay's
            # reads: not a new crash, just a retry (a bounded window lets a
            # later attempt through).
            status = "crash"
        elif status == "crash":
            crashes += 1
    deadlock = monitor.audit()
    snapshot = {
        "integrity": verify_files(
            machine.pfs,
            dict.fromkeys(paths, workload.coverage),
            lambda path: payload_key(machine.config.seed, path),
        ),
        "io_stats": dict(machine.io_stats),
        "cache_stats": dict(machine.cache_stats),
        "recovery": machine.recovery.stats(),
        "crashes": crashes,
        "recovery_attempts": attempts,
        "data_loss": data_loss,
        "unrecovered": status == "crash",
        "deadlock": deadlock,
        "faults_injected": machine.faults.injected if machine.faults else 0,
        "violations": list(monitor.violations),
    }
    return timings, snapshot


def _bandwidth(timings: Optional[list], workload) -> float:
    """Perceived bandwidth of a run's timings (0.0 for a run that died)."""
    if timings is None:
        return 0.0
    return perceived_bandwidth(timings, workload.file_size, include_last_phase=True)


def fault_free_reference(
    spec: FaultExperimentSpec,
    cfg: ClusterConfig,
    workload,
    prefix: str,
    watchdog: bool = False,
    machine: Optional[Machine] = None,
    reference: bool = False,
) -> FaultFreeReference:
    """The same point, fault-free, on an identical fresh cluster
    (:func:`run_job`).

    References with and without the ``watchdog`` (the chaos harness's) are
    memoised apart.  A caller that passes its own fresh ``machine`` wants
    the run itself (a traced or profiled trial): the reference is then
    always simulated, on that machine, and not kept.  ``reference`` builds
    the machine as the reference *stack* (:class:`~repro.machine.Machine`),
    memoised apart as well.
    """
    key = None
    if machine is None:
        key = (reference_key(spec, cfg), watchdog, reference)
        ref = reference_memo.get(key)
        if ref is not None:
            return ref
        machine = Machine(cfg, reference=reference)
    timings, snapshot = run_job(machine, spec, workload, prefix, watchdog=watchdog)
    ref = FaultFreeReference(
        bw=_bandwidth(timings, workload), violations=tuple(snapshot["violations"])
    )
    if key is not None:
        reference_memo.put(key, ref)
    return ref


# -- the point runner --------------------------------------------------------
def run_fault_experiment(
    spec: FaultExperimentSpec,
    config: Optional[ClusterConfig] = None,
    reference: bool = False,
) -> FaultExperimentResult:
    """One fault point: the fault-free twin, then the faulted run (+ recovery),
    both on the production stack, or both on the reference stack."""
    cfg = spec.cluster(config)
    prefix = _file_prefix(spec)
    workload = small_workload(spec.benchmark, cfg.num_ranks, spec.scale)
    schedule = fault_schedule(spec, cfg)
    if schedule or reference:
        ref = fault_free_reference(spec, cfg, workload, prefix, reference=reference)
    else:
        # Without faults, the run below is the reference: if none is
        # memoised, it is not simulated twice.
        ref_key = (reference_key(spec, cfg), False, False)
        ref = reference_memo.get(ref_key)

    machine = Machine(cfg, faults=schedule if schedule else None, reference=reference)
    timings, snap = run_job(machine, spec, workload, prefix)
    bw_faulted = _bandwidth(timings, workload)
    if ref is None:
        ref = FaultFreeReference(bw=bw_faulted, violations=tuple(snap["violations"]))
        reference_memo.put(ref_key, ref)

    crashed = snap["recovery_attempts"] > 0
    rec_stats = snap["recovery"]
    cache_stats = snap["cache_stats"]
    return FaultExperimentResult(
        spec=spec,
        integrity_ok=not snap["integrity"],
        crashed=crashed,
        recovered=crashed and not snap["unrecovered"],
        bw_ref=ref.bw,
        bw_faulted=bw_faulted,
        recovery_time=rec_stats["recovery_time"],
        bytes_replayed=rec_stats["bytes_replayed"],
        files_recovered=rec_stats["files_recovered"],
        retries=cache_stats.get("retries", 0),
        requeues=cache_stats.get("requeues", 0),
        sync_failures=cache_stats.get("sync_failures", 0),
        degraded=cache_stats.get("degraded", 0),
        faults_injected=snap["faults_injected"],
        integrity_violations=snap["integrity"],
        events=machine.sim.events_fired,
        invariant_violations=snap["violations"],
    )


# -- the matrix --------------------------------------------------------------
def scenario_faults(
    scenario: str, spec: FaultExperimentSpec
) -> tuple[tuple[FaultSpec, ...], float]:
    """The fault list + sync RPC timeout for a named scenario."""
    last = spec.num_files - 1
    if scenario == "baseline":
        return (), 0.0
    if scenario == "ssd_flaky":
        # Node 0's SSD returns transient read errors for the whole run
        # (duration 0 = open-ended); the sync thread's retry loop rerolls
        # until each chunk gets through.
        return (FaultSpec("ssd_io_error", target=0, start=0.0, rate=0.3),), 0.0
    if scenario == "server_stall":
        # Server 0 wedges across the deferred-close flush window; the sync
        # path's client watchdog converts the hang into retryable timeouts.
        return (
            FaultSpec("server_stall", target=0, start=0.04, duration=0.06),
        ), 0.01
    if scenario == "link_degraded":
        return (
            FaultSpec("link_degrade", target=1, start=0.0, duration=0.1, factor=0.25),
        ), 0.0
    if scenario == "ssd_loss":
        # Node 0's scratch device drops to read-only almost immediately:
        # cached extents drain, new writes fall back to the direct path.
        return (FaultSpec("ssd_device_loss", target=0, start=0.002),), 0.0
    if scenario == "gc_pressure":
        # Foreground GC competes with host writes on node 0's flash across
        # the whole run: a pure 3x write slowdown, never an error — the
        # cache keeps working, just slower (bw_ratio is the interesting
        # number here).
        return (
            FaultSpec("ssd_gc_pressure", target=0, start=0.0, duration=0.2, factor=3.0),
        ), 0.0
    if scenario == "nvmm_torn":
        # Torn WAL appends on node 0 while the job writes (cache_kind=nvmm;
        # fault_matrix_specs pins the backend).  The cache retries each torn
        # record; recovery CRC-skips the garbage.
        return (
            FaultSpec("nvmm_torn_write", target=0, start=0.0, duration=0.2, rate=0.3),
        ), 0.0
    if scenario == "agg_crash":
        # Kill the job shortly after the last write completes — mid
        # flush/close, when cached extents are guaranteed to be in flight.
        return (
            FaultSpec("aggregator_crash", on_event=f"write_done:{last}", delay=2e-3),
        ), 0.0
    raise ValueError(f"unknown fault scenario {scenario!r}; have {SCENARIOS}")


def fault_matrix_specs(
    benchmarks: tuple[str, ...] = ("ior",),
    scenarios: tuple[str, ...] = SCENARIOS,
    cache_mode: str = "enabled",
    scale: float = 1.0,
    seed: int = 2016,
) -> list[FaultExperimentSpec]:
    """Build the fault matrix: benchmarks × scenarios at one cache mode."""
    specs = []
    for bench in benchmarks:
        for scenario in scenarios:
            base = FaultExperimentSpec(
                benchmark=bench,
                scenario=scenario,
                cache_mode=cache_mode,
                # The torn-append scenario only means anything on the WAL
                # backend; every other scenario keeps the extent default.
                cache_kind="nvmm" if scenario == "nvmm_torn" else "extent",
                scale=scale,
                seed=seed,
            )
            faults, timeout = scenario_faults(scenario, base)
            specs.append(base.scaled(faults=faults, sync_rpc_timeout=timeout))
    return specs


def render_fault_table(results: list[FaultExperimentResult]) -> str:
    """Fixed-width summary table, one row per point."""
    header = (
        f"{'benchmark':<10} {'scenario':<14} {'ok':<3} {'crash':<6} "
        f"{'bw_ratio':>8} {'replayed':>9} {'t_rec[ms]':>9} "
        f"{'retry':>5} {'requeue':>7} {'degr':>4}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(
            f"{r.spec.benchmark:<10} {r.spec.scenario:<14} "
            f"{'y' if r.integrity_ok else 'N':<3} "
            f"{'y' if r.crashed else '-':<6} "
            f"{r.degraded_bw_ratio:>8.3f} {r.bytes_replayed:>9} "
            f"{r.recovery_time * 1e3:>9.2f} "
            f"{r.retries:>5} {r.requeues:>7} {r.degraded:>4}"
        )
    return "\n".join(lines)
