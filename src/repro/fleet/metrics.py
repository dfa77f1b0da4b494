"""Interference metrics and recovery SLOs over a fleet's per-job results.

Percentiles use the nearest-rank method on the sorted sample — integer
index arithmetic only, so aggregates are bit-stable across platforms and
safe to compare byte-for-byte in the determinism tests.

**Recovery SLOs** (:func:`evaluate_job_slo`) turn the crash→restart→replay
timeline each :class:`~repro.fleet.runner.FleetJobResult` carries into
enforced budgets: time-to-restart, journal-replay duration, the
degraded-bandwidth window, and zero lost bytes for cached writes that
finished cleanly.  The fleet chaos harness asserts them per completed job;
tier-1 holds the seeded 8-job crash trial to tighter measured budgets.

Paper correspondence: the zero-loss SLO *is* the paper's central robustness
claim (SSD-cached collective writes survive a process crash); the
degraded-bandwidth ratio generalises the solo perceived-bandwidth metric
(Eq. 2) to a contended cluster.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

#: Default per-job recovery budgets (simulated seconds / bytes).  Generous
#: by design — they catch a recovery path that stopped working (a restart
#: that never comes back, a replay that grinds), not scheduler weather; the
#: seeded crash trial in tests/fleet/test_crash_restart.py pins tighter,
#: measured budgets.
DEFAULT_RECOVERY_SLO = {
    "time_to_restart_max": 2.0,  # total crash -> next-incarnation-start
    "replay_duration_max": 1.0,  # total journal-replay time on reopen
    "degraded_window_max": 3.0,  # time_to_restart + replay_duration
    "bytes_lost_cached_max": 0,  # cached writes that finished "ok" lose nothing
}


def evaluate_job_slo(
    row, budgets: Optional[Mapping[str, float]] = None
) -> list[str]:
    """Recovery-SLO violations for one job row (empty list = within budget).

    Timing budgets apply only to jobs that actually crashed (a fault-free
    job's timeline fields are all zero); the zero-loss budget applies to
    every cache-enabled job that reports ``status == "ok"`` — the paper's
    claim is exactly that such a job, crashed or not, loses no cached byte.
    """
    b = dict(DEFAULT_RECOVERY_SLO)
    if budgets:
        b.update(budgets)
    out: list[str] = []
    label = f"job {row.job_id}"
    if row.first_crash_time > 0:
        if row.time_to_restart > b["time_to_restart_max"]:
            out.append(
                f"{label}: time_to_restart {row.time_to_restart:.6f}s > "
                f"budget {b['time_to_restart_max']}s"
            )
        if row.replay_duration > b["replay_duration_max"]:
            out.append(
                f"{label}: replay_duration {row.replay_duration:.6f}s > "
                f"budget {b['replay_duration_max']}s"
            )
        if row.degraded_window > b["degraded_window_max"]:
            out.append(
                f"{label}: degraded_window {row.degraded_window:.6f}s > "
                f"budget {b['degraded_window_max']}s"
            )
    if (
        row.status == "ok"
        and row.cache_mode == "enabled"
        and row.bytes_lost > b["bytes_lost_cached_max"]
    ):
        out.append(
            f"{label}: bytes_lost {row.bytes_lost} > "
            f"budget {b['bytes_lost_cached_max']} for cached writes"
        )
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize_jobs(jobs) -> dict:
    """Aggregate queue/wall/stretch/degradation metrics over job results.

    ``jobs`` is a sequence of :class:`~repro.fleet.runner.FleetJobResult`.
    Stretch and degradation aggregates cover only jobs that finished
    cleanly (a crashed job's wall time is a teardown artifact, not a
    service time).
    """
    if not jobs:
        return {
            "jobs": 0,
            "ok": 0,
            "failed": 0,
            "crashed": 0,
            "restarts_total": 0,
            "replay_duration_total": 0.0,
            "time_to_restart_max": 0.0,
            "slo_violations": 0,
            "queue_wait_mean": 0.0,
            "queue_wait_max": 0.0,
            "wall_p50": 0.0,
            "wall_p95": 0.0,
            "wall_p99": 0.0,
            "stretch_mean": 0.0,
            "stretch_p95": 0.0,
            "stretch_max": 0.0,
            "degraded_bw_mean": 0.0,
            "degraded_bw_min": 0.0,
        }
    ok = [j for j in jobs if j.status == "ok"]
    waits = [j.queue_wait for j in jobs]
    walls = [j.wall_time for j in ok] or [0.0]
    stretches = [j.stretch for j in ok] or [0.0]
    ratios = [j.degraded_bw for j in ok if j.degraded_bw > 0] or [0.0]
    crashed = [j for j in jobs if j.first_crash_time > 0]
    return {
        "jobs": len(jobs),
        "ok": len(ok),
        "failed": len(jobs) - len(ok),
        "crashed": len(crashed),
        "restarts_total": sum(j.restarts for j in jobs),
        "replay_duration_total": sum(j.replay_duration for j in jobs),
        "time_to_restart_max": max(
            (j.time_to_restart for j in crashed), default=0.0
        ),
        "slo_violations": sum(len(j.slo_violations) for j in jobs),
        "queue_wait_mean": sum(waits) / len(waits),
        "queue_wait_max": max(waits),
        "wall_p50": percentile(walls, 50),
        "wall_p95": percentile(walls, 95),
        "wall_p99": percentile(walls, 99),
        "stretch_mean": sum(stretches) / len(stretches),
        "stretch_p95": percentile(stretches, 95),
        "stretch_max": max(stretches),
        "degraded_bw_mean": sum(ratios) / len(ratios),
        "degraded_bw_min": min(ratios),
    }
