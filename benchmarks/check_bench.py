"""Compare bench_engine reports against committed baselines — the CI gate.

``bench-smoke`` runs ``benchmarks/bench_engine.py --quick`` (which already
exits non-zero on any A/B divergence) and then this script, which turns the
written reports into a *regression* gate against numbers committed in
``benchmarks/baseline_quick.json``:

* **events-fired counts, exactly** — the simulation is deterministic, so
  the quick grid fires a bit-reproducible number of events per stack
  (production, reference).  Any drift means the simulated schedule changed
  and the baseline must be re-recorded deliberately in the same PR.
* **events/s, with generous floors** — shared CI runners are slow and
  noisy, so throughput floors sit ~5x below the reference box; they catch
  an order-of-magnitude dispatch regression (e.g. losing the slotted fast
  lane) without flaking on runner weather.
* **report ``ok`` flags** — belt and braces; bench_engine already failed
  the build if these are false.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick
    python benchmarks/check_bench.py           # reads the default filenames

    python benchmarks/check_bench.py --engine BENCH_engine.json \\
        --dataplane BENCH_dataplane.json --baseline benchmarks/baseline_quick.json

Exit status is non-zero on any mismatch, with one ``FAIL:`` line per
finding on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys


# Reports whose grids (hence every exact count) are sized by --quick/--full;
# bench_fleet's gated sections are the same in both modes.
MODE_SIZED = {
    "engine": "bench_engine.py",
    "dataplane": "bench_engine.py",
    "devices": "bench_devices.py",
}


def check_events_exact(baseline: dict, reports: dict, failures: list[str]) -> None:
    """Exact events-fired comparison for every section/kind in the baseline."""
    sections = {
        "scheduler_microbench": ("engine", "scheduler_microbench"),
        "grid_ab": ("engine", "grid_ab"),
        "dataplane_grid_ab": ("dataplane", "grid_ab"),
        "fleet_grid_ab": ("fleet", "fleet_grid_ab"),
    }
    for name, expected_kinds in baseline["events_fired"].items():
        which, key = sections[name]
        if which not in reports:
            continue  # this invocation only checks a subset of the reports
        section = reports[which].get(key)
        if section is None:
            failures.append(f"{name}: section {key!r} missing from report")
            continue
        for kind, expected in expected_kinds.items():
            got = section.get(kind, {}).get("events_fired")
            if got != expected:
                failures.append(
                    f"{name}.{kind}: events_fired {got} != baseline {expected}"
                )


def check_throughput_floors(
    baseline: dict, reports: dict, failures: list[str]
) -> None:
    floors = baseline["events_per_sec_floors"]
    if "engine" in reports:
        sched = reports["engine"].get("scheduler_microbench", {})
        for kind, floor in floors.get("scheduler_microbench", {}).items():
            got = sched.get(kind, {}).get("events_per_sec", 0.0)
            if got < floor:
                failures.append(
                    f"scheduler_microbench.{kind}: {got:.0f} ev/s < floor {floor}"
                )
        ratio_min = floors.get("scheduler_ratio_min")
        if ratio_min is not None:
            ratio = sched.get("events_per_sec_ratio", 0.0)
            if ratio < ratio_min:
                failures.append(
                    f"scheduler_microbench ratio {ratio:.2f}x < floor {ratio_min}x"
                )
        grid = reports["engine"].get("grid_ab", {})
        for kind, floor in floors.get("grid_ab", {}).items():
            got = grid.get(kind, {}).get("events_per_sec", 0.0)
            if got < floor:
                failures.append(f"grid_ab.{kind}: {got:.0f} ev/s < floor {floor}")
    if "fleet" in reports:
        grid = reports["fleet"].get("fleet_grid_ab", {})
        for kind, floor in floors.get("fleet_grid_ab", {}).items():
            got = grid.get(kind, {}).get("events_per_sec", 0.0)
            if got < floor:
                failures.append(
                    f"fleet_grid_ab.{kind}: {got:.0f} ev/s < floor {floor}"
                )
        if not grid.get("byte_identical", False):
            failures.append(
                "fleet_grid_ab: the stacks' identities diverge "
                f"({', '.join(grid.get('mismatches', ['?']))})"
            )


def check_fleet_scaling(baseline: dict, reports: dict, failures: list[str]) -> None:
    """Gate fleet scaling points against generous wall ceilings.

    The ceilings prove the array kernel sustains thousands-of-jobs fleets
    (the 1024-job point) without flaking on runner weather: they sit far
    above the reference box's wall time, catching only an order-of-magnitude
    solver regression.  Sizes absent from the report (quick mode stops at
    16 jobs) are skipped."""
    ceilings = baseline.get("fleet_scaling_wall_ceilings")
    report = reports.get("fleet")
    if ceilings is None or report is None:
        return
    scaling = report.get("fleet_scaling", {})
    for size, ceiling in ceilings.items():
        point = scaling.get(size)
        if point is None:
            continue
        wall = point.get("wall_s")
        if wall is None or wall > ceiling:
            failures.append(
                f"fleet_scaling.{size}: wall {wall}s > generous ceiling {ceiling}s"
            )
        if point.get("jobs_failed"):
            failures.append(
                f"fleet_scaling.{size}: {point['jobs_failed']} jobs failed"
            )


def check_device_tier(baseline: dict, reports: dict, failures: list[str]) -> None:
    """Gate the bench_devices report: exact FTL counters + tier event counts
    against the ``device_tier`` baseline section."""
    section = baseline.get("device_tier")
    report = reports.get("devices")
    if section is None or report is None:
        return
    aging = report.get("flash_aging", {})
    for counter, expected in section["flash_aging"].items():
        got = aging.get(counter)
        if got != expected:
            failures.append(
                f"flash_aging.{counter}: {got} != baseline {expected}"
            )
    wa_min = section.get("write_amplification_min")
    if wa_min is not None and aging.get("write_amplification", 0.0) < wa_min:
        failures.append(
            f"flash_aging: WA {aging.get('write_amplification')} < floor {wa_min}"
        )
    tiers = report.get("tier_stack_ab", {})
    for key, expected in section["events_fired"].items():
        tier, _, stack = key.rpartition("_")
        got = tiers.get(tier, {}).get(f"events_{stack}")
        if got != expected:
            failures.append(
                f"device_tier.{key}: events_fired {got} != baseline {expected}"
            )
    for tier, stats in tiers.items():
        if not stats.get("byte_identical_excluding_events", False):
            failures.append(f"device_tier.{tier}: stack A/B diverged")
    if not report.get("stream_identity", {}).get("ok", False):
        failures.append("device_tier: REPRO_SSD=stream identity broken")


def check_recovery_slos(baseline: dict, reports: dict, failures: list[str]) -> None:
    """Gate the bench_fleet crash trial against committed recovery budgets.

    The ``recovery_slos`` baseline section pins measured budgets for the
    seeded crash trial: a crashed job must restart and replay within them,
    and cached writes that finished cleanly must lose nothing.  Unlike the
    throughput floors these are *simulated* quantities — deterministic, so
    the budgets are tight and any breach is a semantic regression in the
    crash-routing/restart/replay path, not runner weather.
    """
    budgets = baseline.get("recovery_slos")
    report = reports.get("fleet")
    if budgets is None or report is None:
        return
    crash = report.get("fleet_crash")
    if crash is None:
        failures.append(
            "recovery_slos: fleet_crash section missing from the fleet report "
            "(bench_fleet.py predates the crash trial?)"
        )
        return
    if not crash.get("byte_identical", False):
        failures.append(
            "fleet_crash: the stacks' identities diverge "
            f"({', '.join(crash.get('mismatches', ['?']))})"
        )
    for kind, point in sorted(crash.items()):
        if not isinstance(point, dict):
            continue
        where = f"fleet_crash.{kind}"
        for violation in point.get("violations", []):
            failures.append(f"{where}: {violation}")
        if not point.get("crashed_jobs"):
            failures.append(f"{where}: the seeded schedule injected no crash")
        if not point.get("restarts"):
            failures.append(f"{where}: the crashed job never restarted")
        if point.get("bytes_replayed", 0) <= 0:
            failures.append(f"{where}: restart replayed no journal bytes")
        if point.get("slo_violations"):
            failures.append(
                f"{where}: {point['slo_violations']} per-job SLO violation(s) "
                f"under the default budgets"
            )
        lost = point.get("bytes_lost_cached", 0)
        lost_max = budgets.get("bytes_lost_cached_max", 0)
        if lost > lost_max:
            failures.append(
                f"{where}: bytes_lost_cached {lost} > budget {lost_max}"
            )
        for metric, budget_key in (
            ("time_to_restart_max", "time_to_restart_max"),
            ("replay_duration_total", "replay_duration_max"),
            ("degraded_window_max", "degraded_window_max"),
        ):
            budget = budgets.get(budget_key)
            if budget is None:
                continue
            got = point.get(metric)
            if got is None or got > budget:
                failures.append(
                    f"{where}: {metric} {got} > budget {budget} ({budget_key})"
                )


def check_ok_flags(reports: dict, failures: list[str]) -> None:
    for which, report in reports.items():
        if not report.get("ok", False):
            failures.append(
                f"{which} report not ok: {', '.join(report.get('failures', ['?']))}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/check_bench.py",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--engine", default="BENCH_engine.json")
    parser.add_argument("--dataplane", default="BENCH_dataplane.json")
    parser.add_argument(
        "--fleet",
        default=None,
        help="also gate a bench_fleet report (e.g. BENCH_fleet.json)",
    )
    parser.add_argument(
        "--fleet-only",
        action="store_true",
        help="check only the fleet report (skip engine/dataplane reports)",
    )
    parser.add_argument(
        "--slo",
        action="store_true",
        help="gate only the fleet report's crash-trial recovery SLOs "
        "against the baseline's recovery_slos budgets",
    )
    parser.add_argument(
        "--devices",
        default=None,
        help="also gate a bench_devices report (e.g. BENCH_devices.json)",
    )
    parser.add_argument(
        "--devices-only",
        action="store_true",
        help="check only the devices report (skip engine/dataplane reports)",
    )
    parser.add_argument("--baseline", default="benchmarks/baseline_quick.json")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    reports = {}
    if not (args.fleet_only or args.devices_only or args.slo):
        with open(args.engine) as fh:
            reports["engine"] = json.load(fh)
        with open(args.dataplane) as fh:
            reports["dataplane"] = json.load(fh)
    if args.fleet or args.fleet_only or args.slo:
        with open(args.fleet or "BENCH_fleet.json") as fh:
            reports["fleet"] = json.load(fh)
    if args.devices or args.devices_only:
        with open(args.devices or "BENCH_devices.json") as fh:
            reports["devices"] = json.load(fh)

    failures: list[str] = []
    for which, report in list(reports.items()):
        if report.get("mode") == baseline["mode"]:
            continue
        if which in MODE_SIZED:
            # Every exact count would differ: say so once instead of one
            # FAIL per count.
            failures.append(
                f"{which} report was written in {report.get('mode')!r} mode but "
                f"{args.baseline} holds {baseline['mode']!r}-mode counts; regenerate "
                f"it with `{MODE_SIZED[which]} --{baseline['mode']}`"
            )
            del reports[which]
        else:
            print(
                f"note: {which} report mode {report.get('mode')!r} != baseline "
                f"{baseline['mode']!r}; its gated sections are the same in both modes",
                file=sys.stderr,
            )

    if args.slo:
        # The dedicated SLO gate: only the crash-trial budgets.  The full
        # pass below also runs check_recovery_slos whenever a fleet report
        # and the recovery_slos baseline section are both present.
        check_recovery_slos(baseline, reports, failures)
    else:
        check_ok_flags(reports, failures)
        check_events_exact(baseline, reports, failures)
        check_throughput_floors(baseline, reports, failures)
        check_fleet_scaling(baseline, reports, failures)
        check_device_tier(baseline, reports, failures)
        check_recovery_slos(baseline, reports, failures)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("check_bench: all baseline checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
