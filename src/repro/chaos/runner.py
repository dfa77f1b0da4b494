"""Chaos trials: one seeded schedule, both stacks, full invariant audit.

A :class:`ChaosTrialSpec` names a workload shape and a seed; the runner

1. draws the fault schedule for the seed (or takes the explicit one a
   shrinker / replay artifact carries),
2. runs the workload fault-free on a fresh machine under the same audit
   (once per workload shape and process: the reference does not depend on
   the seed, see :data:`repro.experiments.faultsweep.reference_memo`),
3. runs the *same* workload under the schedule on **both** stacks
   (production and ``Machine(reference=True)``) through the fault matrix's
   job lifecycle (:func:`~repro.experiments.faultsweep.run_job`, with the
   no-progress watchdog armed): it tears a failed phase down, recovers
   from injected crashes (repeatedly — cascades can kill the recovery job
   too) until the job converges or the attempt budget runs out, drains
   each machine to quiescence and audits the conservation / coherence
   invariants, and
4. asserts the two stacks agree on *every* simulated quantity (only the
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
from repro.config import ClusterConfig, small_testbed
from repro.experiments.faultsweep import (
    FaultExperimentSpec,
    FaultPoint,
    fault_free_reference,
    fault_schedule,
    run_job,
)
from repro.faults import FaultSchedule, FaultSpec
from repro.machine import Machine
from repro.workloads import small_workload

#: Cache modes cycled across seeds by :func:`chaos_trial_specs`.
CHAOS_CACHE_MODES = ("enabled", "coherent", "disabled")


@dataclass(frozen=True)
class ChaosTrialSpec(FaultPoint):
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

    _zero_ok = ("workload_seed",)

    @property
    def label(self) -> str:
        return f"seed{self.seed}"

    def cluster(self, config: Optional[ClusterConfig] = None) -> ClusterConfig:
        """The cluster the trial runs on (an explicit config wins unchanged)."""
        if config is not None:
            return config
        return small_testbed(
            num_nodes=self.num_nodes,
            procs_per_node=self.procs_per_node,
            seed=self.workload_seed,
        )

    def run(self, config: Optional[ClusterConfig] = None, cache=None) -> "ChaosTrialResult":
        return run_chaos_trial(self, config)

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


# What ChaosTrialSpec.run returns, and what the result cache decodes.
ChaosTrialSpec.record_type = ChaosTrialResult


# -- the schedule -------------------------------------------------------------
def schedule_for(spec: ChaosTrialSpec, cfg: ClusterConfig) -> FaultSchedule:
    """The schedule a spec runs: generated from the seed, or pinned."""
    if not spec.generate:
        return fault_schedule(spec, cfg)
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


# -- the trial ----------------------------------------------------------------
def run_chaos_trial(
    spec: ChaosTrialSpec,
    config: Optional[ClusterConfig] = None,
    trace: bool = False,
    profiler=None,
) -> ChaosTrialResult:
    cfg = spec.cluster(config)
    schedule = schedule_for(spec, cfg)
    fspec = _fault_spec_view(spec, schedule)
    prefix = f"/global/chaos_{spec.benchmark}_{spec.cache_mode}_s{spec.seed}_"
    workload = small_workload(spec.benchmark, cfg.num_ranks, spec.scale)

    # Fault-free twin: production stack, same invariant audit —
    # shared by every seed of this workload shape, unless the trial is traced
    # or profiled: those simulate the whole trial, whatever ran before.
    ref_machine = Machine(cfg, trace=trace) if trace or profiler is not None else None
    ref = fault_free_reference(
        fspec, cfg, workload, prefix, watchdog=True, machine=ref_machine
    )

    snaps: dict[str, dict] = {}
    events: dict[str, int] = {}
    tracers: dict[str, object] = {"ref": ref_machine and ref_machine.tracer}
    for kind in ("production", "reference"):
        # One full faulted job (+ recoveries) per stack, watchdog armed: the
        # snapshot holds every simulated quantity the stacks must agree on,
        # the diagnostic event count stays outside it.
        machine = Machine(
            cfg,
            trace=trace,
            faults=schedule if schedule else None,
            profiler=profiler if kind == "production" else None,
            reference=kind == "reference",
        )
        _, snaps[kind] = run_job(machine, fspec, workload, prefix, watchdog=True)
        events[kind] = machine.sim.events_fired
        tracers[kind] = machine.tracer

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
