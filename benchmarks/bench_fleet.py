"""Fleet benchmark: events/s and jobs/s for multi-job fleets on one machine.

Two concerns, one report (``BENCH_fleet.json``):

* **Determinism gate** — the 16-job fleet runs on both stacks (production,
  and ``run_fleet(reference=True)``: heapq engine, naive fabric, chunked
  data plane) and the two
  :meth:`~repro.fleet.runner.FleetResult.identity` dicts must be
  byte-identical: same per-job rows, same queue waits, same makespan,
  same aggregate summary.  The fleet timeline is part of the repo's
  differential-testing contract, so any divergence fails the benchmark
  (non-zero exit) before check_bench even looks at the numbers.
* **Throughput scaling** — fleets of {16, 64, 256, 1024} jobs (quick mode
  stops at 16) on the production stack, recording wall
  time, events fired, events/s and jobs/s.  The per-stack events-fired
  counts are bit-reproducible and gated exactly by ``check_bench.py
  --fleet``; the 1024-job point additionally gates under a generous wall
  ceiling (the thousands-of-jobs evidence the array fair-share kernel
  exists to unblock).
* **Crash-recovery trial** — a seeded 8-job fleet chaos run with
  ``crash_probability=1.0`` on both stacks:
  the crashed job must restart, replay its journals, and finish with zero
  lost bytes; the two timelines must be byte-identical; and the
  recovery-SLO aggregates (time-to-restart, replay duration, degraded
  window) are recorded for ``check_bench.py --slo`` to gate against the
  budgets in ``benchmarks/baseline_quick.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py --quick
    PYTHONPATH=src python benchmarks/bench_fleet.py --full --out BENCH_fleet.json

Exit status is non-zero if the stacks diverge or a fleet reports failed
jobs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.fleet import FleetSpec, run_fleet
from repro.fleet.chaos import run_fleet_chaos

# Reference numbers from the box that recorded benchmarks/baseline_quick.json
# (events are exact and stack-dependent; throughputs are context).
RECORDED_BASELINES = {
    "fleet16_production_events": 12086,
    "fleet16_reference_events": 22334,
    "fleet256_production_wall_s": 7.5,
}

BENCH_SCALE = 0.03125  # same quick scale as bench_engine / the CI grids

AB_FLEET_SIZE = 16
QUICK_SIZES = (16,)
# 1024 jobs is the thousands-of-jobs scale point the array fair-share
# kernel unblocks (ROADMAP open item 2): the point streams into
# BENCH_fleet.json like the others and check_bench --fleet gates it under
# a generous wall ceiling (benchmarks/baseline_quick.json).
FULL_SIZES = (16, 64, 256, 1024)
STACKS = ("production", "reference")


def bench_point(fleet_size: int, stack: str):
    """One fleet run on one stack; returns ``(identity_dict, metrics_dict)``."""
    spec = FleetSpec(fleet_size=fleet_size, scale=BENCH_SCALE)
    t0 = time.perf_counter()
    result = run_fleet(spec, reference=stack == "reference")
    wall = time.perf_counter() - t0
    metrics = {
        "fleet_size": fleet_size,
        "stack": result.stack,
        "wall_s": wall,
        "events_fired": result.events,
        "events_per_sec": result.events / wall if wall else 0.0,
        "jobs_per_sec": fleet_size / wall if wall else 0.0,
        "makespan": result.makespan,
        "backfilled": result.backfilled,
        "jobs_failed": result.summary.get("failed", 0),
    }
    return result.identity(), metrics


def diverging(identities: dict[str, dict]) -> list[str]:
    """The stacks whose identity is not production's."""
    production = json.dumps(identities["production"], sort_keys=True)
    return [
        kind
        for kind, identity in identities.items()
        if json.dumps(identity, sort_keys=True) != production
    ]


def fleet_grid_ab(failures: list[str]) -> dict:
    """The determinism gate: both stacks at one size."""
    section: dict = {}
    identities: dict[str, dict] = {}
    for kind in STACKS:
        identity, metrics = bench_point(AB_FLEET_SIZE, kind)
        identities[kind] = identity
        section[kind] = metrics
        print(
            f"  fleet_grid_ab {kind:16s} events={metrics['events_fired']:>7d} "
            f"wall={metrics['wall_s']:.2f}s "
            f"ev/s={metrics['events_per_sec']:,.0f} "
            f"jobs/s={metrics['jobs_per_sec']:.1f}"
        )
    mismatches = diverging(identities)
    for kind in mismatches:
        failures.append(f"fleet_grid_ab.{kind}: identity diverges from production")
    failed = section["production"]["jobs_failed"]
    if failed:
        failures.append(f"fleet_grid_ab: {failed} jobs failed in a fault-free fleet")
    section["byte_identical"] = not mismatches
    section["mismatches"] = mismatches
    return section


CRASH_FLEET_SIZE = 8
CRASH_SEED = 1  # draws one aggregator_crash addressing job j0 (restartable)


def fleet_crash(failures: list[str]) -> dict:
    """The crash-recovery trial: seeded crash + restart on both stacks.

    The section carries the recovery-SLO aggregates ``check_bench --slo``
    gates: a run where the restart never happens, the replay grinds, or a
    cached byte is lost fails here (or at the gate) rather than silently
    shipping a broken recovery path.
    """
    section: dict = {}
    identities: dict[str, dict] = {}
    for kind in STACKS:
        t0 = time.perf_counter()
        trial = run_fleet_chaos(
            fleet_size=CRASH_FLEET_SIZE,
            seed=CRASH_SEED,
            scale=BENCH_SCALE,
            crash_probability=1.0,
            reference=kind == "reference",
        )
        wall = time.perf_counter() - t0
        identities[kind] = trial.fleet.identity()
        summary = trial.fleet.summary
        section[kind] = {
            "wall_s": wall,
            "events_fired": trial.fleet.events,
            "crashed_jobs": trial.crashed_jobs,
            "restarts": trial.restarts,
            "violations": list(trial.violations),
            "statuses": trial.statuses,
            "time_to_restart_max": summary["time_to_restart_max"],
            "replay_duration_total": summary["replay_duration_total"],
            "degraded_window_max": max(
                (j.degraded_window for j in trial.fleet.jobs), default=0.0
            ),
            "bytes_replayed": sum(j.bytes_replayed for j in trial.fleet.jobs),
            "bytes_lost_cached": sum(
                j.bytes_lost
                for j in trial.fleet.jobs
                if j.status == "ok" and j.cache_mode == "enabled"
            ),
            "slo_violations": summary["slo_violations"],
        }
        print(
            f"  fleet_crash   {kind:16s} events={trial.fleet.events:>7d} "
            f"crashed={trial.crashed_jobs} restarts={trial.restarts} "
            f"replayed={section[kind]['bytes_replayed']} "
            f"wall={wall:.2f}s"
        )
        for violation in trial.violations:
            failures.append(f"fleet_crash.{kind}: {violation}")
        if not trial.crashed_jobs:
            failures.append(
                f"fleet_crash.{kind}: the seeded schedule injected no crash"
            )
        if not trial.restarts:
            failures.append(
                f"fleet_crash.{kind}: the crashed job never restarted"
            )
    mismatches = diverging(identities)
    for kind in mismatches:
        failures.append(f"fleet_crash.{kind}: identity diverges from production")
    section["byte_identical"] = not mismatches
    section["mismatches"] = mismatches
    return section


def fleet_scaling(sizes, grid_ab: dict, failures: list[str]) -> dict:
    """Throughput vs fleet size on the production stack."""
    section: dict = {}
    for size in sizes:
        if size == AB_FLEET_SIZE and "production" in grid_ab:
            metrics = grid_ab["production"]  # already measured in the A/B
        else:
            _, metrics = bench_point(size, "production")
        section[str(size)] = metrics
        if metrics["jobs_failed"]:
            failures.append(
                f"fleet_scaling.{size}: {metrics['jobs_failed']} jobs failed "
                f"in a fault-free fleet"
            )
        print(
            f"  fleet_scaling  n={size:<4d} events={metrics['events_fired']:>8d} "
            f"wall={metrics['wall_s']:.2f}s "
            f"ev/s={metrics['events_per_sec']:,.0f} "
            f"jobs/s={metrics['jobs_per_sec']:.1f}"
        )
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_fleet.py",
        description=__doc__.splitlines()[0],
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true", help="A/B grid + 16-job scaling (CI)"
    )
    mode.add_argument(
        "--full", action="store_true", help="A/B grid + {16,64,256,1024} scaling"
    )
    parser.add_argument("--out", default="BENCH_fleet.json")
    args = parser.parse_args(argv)
    full = bool(args.full)

    failures: list[str] = []
    print(f"bench_fleet: scale={BENCH_SCALE} mode={'full' if full else 'quick'}")
    report = {
        "scale": BENCH_SCALE,
        "mode": "full" if full else "quick",
        "recorded_baselines": RECORDED_BASELINES,
    }
    report["fleet_grid_ab"] = fleet_grid_ab(failures)
    report["fleet_crash"] = fleet_crash(failures)
    report["fleet_scaling"] = fleet_scaling(
        FULL_SIZES if full else QUICK_SIZES, report["fleet_grid_ab"], failures
    )
    report["ok"] = not failures
    report["failures"] = failures

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"bench_fleet: wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
