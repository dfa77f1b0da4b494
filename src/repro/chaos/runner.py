"""Chaos trials: one seeded schedule, both stacks, full invariant audit.

A :class:`ChaosTrialSpec` names a workload shape and a seed; the runner

1. draws the fault schedule for the seed (or takes the explicit one a
   shrinker / replay artifact carries),
2. runs the workload fault-free on a fresh machine under the same audit
   (once per workload shape and process: the reference does not depend on
   the seed, see :data:`repro.experiments.faultsweep.reference_memo`),
3. runs the *same* workload under the schedule on **both** stacks
   (production and ``Machine(reference=True)``), each with an attached
   :class:`~repro.chaos.invariants.InvariantMonitor`, recovering from
   injected crashes (repeatedly — cascades can kill the recovery job too)
   until the job converges or the attempt budget runs out,
4. drains each machine to quiescence, audits the conservation / coherence
   invariants, and
5. asserts the two stacks agree on *every* simulated quantity (only the
   diagnostic event counts may differ) and that each persisted file holds
   exactly what the workload's access tables cover, stored bytes equal to
   the payload function (:func:`~repro.chaos.invariants.verify_files`) —
   unless the schedule legitimately forced data loss, which the ledger
   still has to account for.

Results are plain dataclasses with ``to_dict``/``from_dict`` so they flow
through the same :class:`~repro.experiments.parallel.SweepRunner` /
result-cache machinery as every other sweep.

Paper correspondence: none (robustness harness, DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.chaos.generate import ChaosConfig, generate_schedule
from repro.chaos.invariants import InvariantMonitor
from repro.config import ClusterConfig, small_testbed
from repro.experiments.faultsweep import (
    FAULT_BENCHMARKS,
    FAULT_CACHE_MODES,
    FaultExperimentSpec,
    build_fault_workload,
    fault_free_reference,
    integrity_violations,
    phase_body,
)
from repro.faults import FaultSchedule, FaultSpec, JobAborted
from repro.faults.errors import FaultError, SyncFailedError
from repro.romio.hints import CACHE_KINDS
from repro.machine import Machine
from repro.mpi.process import MPIWorld
from repro.romio.file import MPIIOLayer
from repro.sim.core import DeadlockError, Interrupt

#: Cache modes cycled across seeds by :func:`chaos_trial_specs`.
CHAOS_CACHE_MODES = ("enabled", "coherent", "disabled")

#: Recovery attempts before a trial is declared unrecovered.  Cascades kill
#: at most one recovery job per armed spec, so two would do; the margin
#: covers transient fault windows that outlive the first recovery too.
MAX_RECOVERY_ATTEMPTS = 5


@dataclass(frozen=True)
class ChaosTrialSpec:
    """One chaos point: workload shape + schedule seed (or explicit faults)."""

    seed: int
    benchmark: str = "ior"
    cache_mode: str = "enabled"
    cache_kind: str = "extent"  # cache backend: extent file or NVMM WAL
    flush_flag: str = "flush_onclose"
    num_nodes: int = 4
    procs_per_node: int = 2
    num_files: int = 2
    compute_delay: float = 0.05
    scale: float = 1.0
    workload_seed: int = 2016
    max_faults: int = 3
    # Explicit schedule override (shrinker / replay artifacts).  With
    # ``generate`` True the schedule is drawn from ``seed`` and these two
    # fields are ignored.
    faults: tuple = ()
    sync_rpc_timeout: float = 0.0
    generate: bool = True

    def __post_init__(self):
        if self.benchmark not in FAULT_BENCHMARKS:
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        if self.cache_mode not in FAULT_CACHE_MODES:
            raise ValueError(f"unknown cache mode {self.cache_mode!r}")
        if self.cache_kind not in CACHE_KINDS:
            raise ValueError(f"unknown cache kind {self.cache_kind!r}")
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def label(self) -> str:
        return f"seed{self.seed}"

    def scaled(self, **kw) -> "ChaosTrialSpec":
        return replace(self, **kw)

    def pinned(self, schedule: FaultSchedule) -> "ChaosTrialSpec":
        """The same spec with the schedule made explicit (replayable as-is)."""
        return replace(
            self,
            faults=schedule.faults,
            sync_rpc_timeout=schedule.sync_rpc_timeout,
            generate=False,
        )

    @classmethod
    def from_dict(cls, d: dict) -> "ChaosTrialSpec":
        fields_ = dict(d)
        fields_["faults"] = tuple(
            FaultSpec.from_dict(f) for f in fields_.get("faults", ())
        )
        return cls(**fields_)


@dataclass
class ChaosTrialResult:
    """Outcome of one chaos trial (both stacks merged; they must agree)."""

    spec: ChaosTrialSpec
    schedule: dict  # the schedule actually run, serialized
    outcome: str  # survived | crash_recovered | data_loss | unrecovered | deadlock
    integrity_ok: bool  # persisted files hold what the workload wrote
    stacks_match: bool  # production and reference agree on every simulated quantity
    mismatched: list  # snapshot keys where the stacks disagreed
    violations: list  # invariant violations, tagged ref:/production:/reference:
    crashes: int  # crash interrupts observed (production stack)
    recovery_attempts: int
    bytes_replayed: int
    files_recovered: int
    retries: int
    requeues: int
    sync_failures: int
    degraded: int
    faults_injected: int
    io_stats: dict = field(default_factory=dict)
    integrity_violations: list = field(default_factory=list)  # production stack's
    events_production: int = 0
    events_reference: int = 0

    @property
    def ok(self) -> bool:
        """Did this trial uphold every property the harness asserts?"""
        return (
            self.integrity_ok
            and self.stacks_match
            and not self.violations
            and self.outcome not in ("unrecovered", "deadlock")
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["spec"] = asdict(self.spec)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ChaosTrialResult":
        fields_ = dict(d)
        fields_["spec"] = ChaosTrialSpec.from_dict(fields_["spec"])
        return cls(**fields_)


# -- schedule / config resolution ---------------------------------------------
def resolve_chaos_config(
    spec: ChaosTrialSpec, config: Optional[ClusterConfig] = None
) -> ClusterConfig:
    if config is not None:
        return config
    return small_testbed(
        num_nodes=spec.num_nodes,
        procs_per_node=spec.procs_per_node,
        seed=spec.workload_seed,
    )


def schedule_for(spec: ChaosTrialSpec, cfg: ClusterConfig) -> FaultSchedule:
    """The schedule a spec runs: generated from the seed, or pinned."""
    if not spec.generate:
        return FaultSchedule(
            faults=spec.faults, sync_rpc_timeout=spec.sync_rpc_timeout
        ).validate(
            num_nodes=cfg.num_nodes,
            num_servers=cfg.pfs.num_data_servers,
            num_ranks=cfg.num_ranks,
        )
    chaos_cfg = ChaosConfig(
        num_nodes=cfg.num_nodes,
        num_servers=cfg.pfs.num_data_servers,
        num_ranks=cfg.num_ranks,
        num_files=spec.num_files,
        max_faults=spec.max_faults,
        # NVMM-backed trials opt into the device-tier draws (torn WAL
        # appends + GC pressure); extent trials keep the legacy sequence.
        cache_kind=spec.cache_kind,
        device_faults=spec.cache_kind == "nvmm",
    )
    return generate_schedule(chaos_cfg, spec.seed)


def _fault_spec_view(spec: ChaosTrialSpec, schedule: FaultSchedule) -> FaultExperimentSpec:
    """Adapter so the faultsweep workload/hints helpers serve chaos trials."""
    return FaultExperimentSpec(
        benchmark=spec.benchmark,
        scenario=f"chaos{spec.seed}",
        faults=schedule.faults,
        sync_rpc_timeout=schedule.sync_rpc_timeout,
        cache_mode=spec.cache_mode,
        cache_kind=spec.cache_kind,
        flush_flag=spec.flush_flag,
        num_nodes=spec.num_nodes,
        procs_per_node=spec.procs_per_node,
        num_files=spec.num_files,
        compute_delay=spec.compute_delay,
        scale=spec.scale,
        seed=spec.workload_seed,
    )


# -- one stack ----------------------------------------------------------------
def _run_phase(world: MPIWorld, body) -> str:
    """Run one job phase; classify how it ended.

    When a single rank dies of an uncaught error mid-collective, the
    surviving ranks of the phase are torn down like a real ``mpirun``
    would do — otherwise they wait on the dead rank's barrier forever and
    the no-progress watchdog reports a (correct but useless) deadlock.
    """
    sim = world.machine.sim
    procs = world.spawn(body)
    try:
        sim.run(until=sim.all_of(procs))
        return "ok"
    except Interrupt as exc:
        if isinstance(exc.cause, JobAborted):
            return "crash"  # the injector already interrupted every rank
        raise
    except SyncFailedError as exc:
        status, cause = "loss", exc
    except FaultError as exc:
        status, cause = "fault", exc
    for proc in procs:
        if proc.is_alive:
            proc.interrupt(JobAborted(cause))
    return status


def _run_stack(
    cfg: ClusterConfig,
    schedule: FaultSchedule,
    reference: bool,
    workload,
    fspec: FaultExperimentSpec,
    prefix: str,
    paths: list[str],
    trace: bool = False,
    profiler=None,
) -> tuple[dict, int, object]:
    """One full faulted job (+ recoveries) on one stack.

    Returns ``(snapshot, events_fired, machine)`` — the snapshot holds every
    simulated quantity the stacks must agree on; the diagnostic event count
    stays outside it.
    """
    machine = Machine(
        cfg,
        trace=trace,
        faults=schedule if schedule else None,
        profiler=profiler,
        reference=reference,
    )
    monitor = InvariantMonitor(machine)
    world = MPIWorld(machine)
    layer = MPIIOLayer(machine, world.comm, driver="beegfs", exchange_mode="model")
    body = phase_body(fspec, layer, workload, prefix)
    crashes = 0
    data_loss = False
    attempts = 0
    monitor.watch()
    status = _run_phase(world, body)
    if status == "loss":
        data_loss = True
    if status == "fault":
        # The main write path has its own degradation fallbacks; a FaultError
        # escaping it is a bug, not a legitimate outcome.
        monitor.record("FaultError escaped the main write phase")
    while status == "crash" and attempts < MAX_RECOVERY_ATTEMPTS:
        crashes += 1
        attempts += 1
        # Recovery job on the same machine: the cluster survives, only the
        # MPI job died.  Re-opening each surviving file replays orphaned
        # cache extents; a cascade crash can kill this job too, in which
        # case we simply run another one.
        live = [p for p in paths if machine.pfs.exists(p)]
        rec_world = MPIWorld(machine)
        rec_layer = MPIIOLayer(
            machine, rec_world.comm, driver="beegfs", exchange_mode="model"
        )

        def recovery_body(ctx, _layer=rec_layer, _live=live):
            for path in _live:
                fh = yield from _layer.open(ctx.rank, path, {})
                yield from fh.close()

        monitor.watch()
        status = _run_phase(rec_world, recovery_body)
        if status == "loss":
            data_loss = True
        if status == "fault":
            # A transient window outlived the crash and hit the replay's
            # unguarded reads; the window is bounded, so another recovery
            # attempt (later in simulated time) gets through.
            status = "crash"
            crashes -= 1  # not a new crash, just a retry
    unrecovered = status == "crash"
    deadlocked = False
    try:
        monitor.drain()
    except DeadlockError as exc:
        deadlocked = True
        monitor.record(f"deadlock: {exc}")
    monitor.check_quiescent()
    snapshot = {
        "integrity": integrity_violations(machine, workload, paths),
        "io_stats": dict(machine.io_stats),
        "cache_stats": dict(machine.cache_stats),
        "recovery": machine.recovery.stats(),
        "crashes": crashes,
        "recovery_attempts": attempts,
        "data_loss": data_loss,
        "unrecovered": unrecovered,
        "deadlock": deadlocked,
        "faults_injected": machine.faults.injected if machine.faults else 0,
        "violations": list(monitor.violations),
    }
    return snapshot, machine.sim.events_fired, machine


# -- the trial ----------------------------------------------------------------
def run_chaos_trial(
    spec: ChaosTrialSpec,
    config: Optional[ClusterConfig] = None,
    trace: bool = False,
    profiler=None,
) -> ChaosTrialResult:
    cfg = resolve_chaos_config(spec, config)
    schedule = schedule_for(spec, cfg)
    fspec = _fault_spec_view(spec, schedule)
    prefix = f"/global/chaos_{spec.benchmark}_{spec.cache_mode}_s{spec.seed}_"
    paths = [f"{prefix}{k}" for k in range(spec.num_files)]
    workload = build_fault_workload(fspec, cfg.num_ranks)

    # Fault-free twin: production stack, same invariant audit —
    # shared by every seed of this workload shape, unless the trial is traced
    # or profiled: those simulate the whole trial, whatever ran before.
    ref_machine = Machine(cfg, trace=trace) if trace or profiler is not None else None
    ref = fault_free_reference(fspec, cfg, workload, prefix, audit=True, machine=ref_machine)

    snaps: dict[str, dict] = {}
    events: dict[str, int] = {}
    tracers: dict[str, object] = {"ref": ref_machine and ref_machine.tracer}
    for kind in ("production", "reference"):
        snaps[kind], events[kind], m = _run_stack(
            cfg,
            schedule,
            kind == "reference",
            workload,
            fspec,
            prefix,
            paths,
            trace=trace,
            profiler=profiler if kind == "production" else None,
        )
        tracers[kind] = m.tracer

    prod, refstack = snaps["production"], snaps["reference"]
    mismatched = sorted(k for k in prod if prod[k] != refstack[k])

    violations = [f"ref:{v}" for v in ref.violations]
    violations += [f"production:{v}" for v in prod["violations"]]
    violations += [f"reference:{v}" for v in refstack["violations"]]

    if prod["deadlock"] or refstack["deadlock"]:
        outcome = "deadlock"
    elif prod["unrecovered"] or refstack["unrecovered"]:
        outcome = "unrecovered"
    elif prod["data_loss"] or refstack["data_loss"]:
        outcome = "data_loss"
    elif prod["crashes"]:
        outcome = "crash_recovered"
    else:
        outcome = "survived"

    if outcome in ("survived", "crash_recovered"):
        integrity_ok = not any(snaps[k]["integrity"] for k in snaps)
    else:
        # Lost or never-converged data cannot be whole; the conservation
        # ledger (violations above) is the oracle instead.
        integrity_ok = True

    result = ChaosTrialResult(
        spec=spec,
        schedule=schedule.to_dict(),
        outcome=outcome,
        integrity_ok=integrity_ok,
        stacks_match=not mismatched,
        mismatched=mismatched,
        violations=violations,
        crashes=prod["crashes"],
        recovery_attempts=prod["recovery_attempts"],
        bytes_replayed=prod["recovery"]["bytes_replayed"],
        files_recovered=prod["recovery"]["files_recovered"],
        retries=prod["cache_stats"].get("retries", 0),
        requeues=prod["cache_stats"].get("requeues", 0),
        sync_failures=prod["cache_stats"].get("sync_failures", 0),
        degraded=prod["cache_stats"].get("degraded", 0),
        faults_injected=prod["faults_injected"],
        io_stats=prod["io_stats"],
        integrity_violations=prod["integrity"],
        events_production=events["production"],
        events_reference=events["reference"],
    )
    if trace:
        # Diagnostic side channel for tools/profile_sweep.py --chaos-seed;
        # not a dataclass field, so it never enters the result cache.
        result.tracers = tracers
    return result


def _run_chaos_point(spec: ChaosTrialSpec, config: Optional[ClusterConfig]):
    """Module-level so the process pool can pickle it by reference."""
    return run_chaos_trial(spec, config)


# -- spec batches / reporting -------------------------------------------------
def chaos_trial_specs(
    seeds,
    scale: float = 1.0,
    benchmark: str = "ior",
    max_faults: int = 3,
) -> list[ChaosTrialSpec]:
    """One trial per seed, cycling cache modes and flush flags."""
    specs = []
    for seed in seeds:
        cache_mode = CHAOS_CACHE_MODES[seed % len(CHAOS_CACHE_MODES)]
        specs.append(
            ChaosTrialSpec(
                seed=seed,
                benchmark=benchmark,
                cache_mode=cache_mode,
                # Every fourth caching trial runs on the NVMM WAL backend so
                # the smoke matrix exercises torn-append recovery too.
                cache_kind=(
                    "nvmm"
                    if seed % 4 == 3 and cache_mode != "disabled"
                    else "extent"
                ),
                flush_flag="flush_immediate" if (seed // 3) % 2 else "flush_onclose",
                scale=scale,
                max_faults=max_faults,
            )
        )
    return specs


def render_chaos_table(results: list[ChaosTrialResult]) -> str:
    header = (
        f"{'seed':>6} {'cache':<9} {'kind':<7} {'flush':<15} {'faults':>6} "
        f"{'outcome':<15} {'ok':<3} {'stacks':<6} {'viol':>4} "
        f"{'replayed':>9} {'retry':>5}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(
            f"{r.spec.seed:>6} {r.spec.cache_mode:<9} "
            f"{r.spec.cache_kind:<7} {r.spec.flush_flag:<15} "
            f"{len(r.schedule.get('faults', ())):>6} {r.outcome:<15} "
            f"{'y' if r.ok else 'N':<3} {'y' if r.stacks_match else 'N':<6} "
            f"{len(r.violations):>4} {r.bytes_replayed:>9} {r.retries:>5}"
        )
    return "\n".join(lines)
