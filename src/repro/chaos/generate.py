"""Seeded random fault-schedule generation.

``generate_schedule(cfg, seed)`` draws a small, *survivable* fault schedule
from a :class:`random.Random` stream: every window is bounded (the retry /
re-queue budget of the sync path can usually outlast it), error rates stay
below 1.0, and trigger times are drawn from continuous distributions — so a
fault firing at exactly the same instant as an in-flight device operation
is measure-zero, which is what keeps production and reference-stack runs byte-identical
under the same schedule.

Crashes are *event-anchored* rather than clock-driven: an
``aggregator_crash`` arms on ``write_done:<last>`` (all application writes
acknowledged, flush/close in flight — the window where cached extents are
guaranteed to be at risk), so the reference checksums remain the correct
oracle for the recovered file.  With probability ``cascade_probability`` a
second crash arms on ``recovery_replay`` — it fires while the *recovery*
job is replaying the first crash's journals, the nastiest point in the
state space (partially-replayed journals, revoked-and-reacquired locks).

The same draw for the same ``(cfg, seed)`` is guaranteed identical across
runs and platforms (``random.Random`` is specified), which is what makes a
seed a sufficient repro artifact for unshrunk schedules.

Paper correspondence: none (robustness harness, DESIGN.md §9).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.spec import FaultSchedule, FaultSpec

#: Relative draw weights for the windowed (non-crash) fault kinds.
_WINDOWED_KINDS = (
    "ssd_io_error",
    "ssd_io_error",
    "ssd_io_error",
    "server_stall",
    "server_stall",
    "link_degrade",
    "link_degrade",
    "ssd_device_loss",
)


@dataclass(frozen=True)
class ChaosConfig:
    """Bounds for the schedule generator (all times in simulated seconds)."""

    num_nodes: int = 4
    num_servers: int = 4
    num_ranks: int = 8
    num_files: int = 2
    max_faults: int = 3  # windowed faults per schedule (crashes come extra)
    horizon: float = 0.12  # clock-driven windows start inside [start_min, horizon)
    start_min: float = 0.002
    min_window: float = 0.004
    max_window: float = 0.05  # survivable: shorter than the retry+requeue budget
    min_error_rate: float = 0.1
    max_error_rate: float = 0.7  # < 1.0 so retries eventually get through
    crash_probability: float = 0.35
    cascade_probability: float = 0.5  # second crash during recovery replay
    timeout_probability: float = 0.6  # arm the sync RPC watchdog alongside stalls
    sync_rpc_timeout: float = 0.01
    # Device-tier faults (drawn *after* the legacy sequence, and only for
    # configs that opt in — so existing (cfg, seed) schedules are unchanged).
    cache_kind: str = "extent"  # "nvmm" enables torn-WAL-append draws
    device_faults: bool = False  # enables ssd_gc_pressure draws
    torn_write_probability: float = 0.75
    gc_pressure_probability: float = 0.6
    max_gc_factor: float = 4.0
    # Fleet scope: > 0 makes crash draws job-addressed (a ``job_index``
    # uniform over the fleet's arrival order).  0 keeps the legacy untagged
    # single-job semantics and the legacy draw sequence.
    num_jobs: int = 0


def generate_schedule(cfg: ChaosConfig, seed: int) -> FaultSchedule:
    """One validated random schedule, fully determined by ``(cfg, seed)``."""
    rng = random.Random(seed)
    faults: list[FaultSpec] = []
    lost_nodes: set[int] = set()
    for _ in range(rng.randint(1, max(1, cfg.max_faults))):
        kind = rng.choice(_WINDOWED_KINDS)
        if kind == "ssd_device_loss" and len(lost_nodes) >= cfg.num_nodes:
            kind = "ssd_io_error"  # every device already lost once
        start = rng.uniform(cfg.start_min, cfg.horizon)
        duration = rng.uniform(cfg.min_window, cfg.max_window)
        if kind == "ssd_io_error":
            faults.append(
                FaultSpec(
                    kind,
                    target=rng.randrange(cfg.num_nodes),
                    start=start,
                    duration=duration,
                    rate=rng.uniform(cfg.min_error_rate, cfg.max_error_rate),
                )
            )
        elif kind == "server_stall":
            faults.append(
                FaultSpec(
                    kind,
                    target=rng.randrange(cfg.num_servers),
                    start=start,
                    duration=duration,
                )
            )
        elif kind == "link_degrade":
            faults.append(
                FaultSpec(
                    kind,
                    target=rng.randrange(cfg.num_nodes),
                    start=start,
                    duration=duration,
                    factor=rng.uniform(0.2, 0.9),
                )
            )
        else:  # ssd_device_loss — at most once per node (validate() enforces)
            target = rng.choice(sorted(set(range(cfg.num_nodes)) - lost_nodes))
            lost_nodes.add(target)
            faults.append(FaultSpec(kind, target=target, start=start))
    # Device-tier kinds come after the legacy draws and behind opt-in flags,
    # which keeps the rng draw sequence — and therefore every existing
    # (cfg, seed) → schedule mapping — byte-identical for extent configs.
    if cfg.cache_kind == "nvmm" and rng.random() < cfg.torn_write_probability:
        faults.append(
            FaultSpec(
                "nvmm_torn_write",
                target=rng.randrange(cfg.num_nodes),
                start=rng.uniform(cfg.start_min, cfg.horizon),
                duration=rng.uniform(cfg.min_window, cfg.max_window),
                rate=rng.uniform(cfg.min_error_rate, cfg.max_error_rate),
            )
        )
    if cfg.device_faults and rng.random() < cfg.gc_pressure_probability:
        faults.append(
            FaultSpec(
                "ssd_gc_pressure",
                target=rng.randrange(cfg.num_nodes),
                start=rng.uniform(cfg.start_min, cfg.horizon),
                duration=rng.uniform(cfg.min_window, cfg.max_window),
                factor=rng.uniform(1.5, cfg.max_gc_factor),
            )
        )
    if rng.random() < cfg.crash_probability:
        last = max(0, cfg.num_files - 1)
        # Draw order matters: the job draw comes *after* the legacy
        # target/delay draws and only when num_jobs opts in, so every
        # existing single-job (cfg, seed) → schedule mapping is unchanged.
        target = rng.randrange(max(1, cfg.num_ranks))
        delay = rng.uniform(5e-4, 6e-3)
        job_index = rng.randrange(cfg.num_jobs) if cfg.num_jobs > 0 else -1
        faults.append(
            FaultSpec(
                "aggregator_crash",
                target=target,
                on_event=f"write_done:{last}",
                delay=delay,
                job_index=job_index,
            )
        )
        if rng.random() < cfg.cascade_probability:
            # The cascade reuses the first crash's job_index: only a crashed
            # job ever replays, so addressing any other job would arm a
            # trigger that can never fire.  Killing the *restarted*
            # incarnation mid-replay is the point — it spends a second
            # retry from the restart budget at the nastiest moment.
            target = rng.randrange(max(1, cfg.num_ranks))
            delay = rng.uniform(2e-4, 1.5e-3)
            faults.append(
                FaultSpec(
                    "aggregator_crash",
                    target=target,
                    on_event="recovery_replay",
                    delay=delay,
                    job_index=job_index,
                )
            )
    timeout = 0.0
    if any(f.kind == "server_stall" for f in faults):
        if rng.random() < cfg.timeout_probability:
            timeout = cfg.sync_rpc_timeout
    schedule = FaultSchedule(faults=tuple(faults), sync_rpc_timeout=timeout)
    return schedule.validate(
        num_nodes=cfg.num_nodes,
        num_servers=cfg.num_servers,
        num_ranks=cfg.num_ranks,
        num_files=cfg.num_files,
        num_jobs=cfg.num_jobs or None,
    )
